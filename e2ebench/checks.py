"""Output checks that do not depend on the engine.

Every check parses the program's output with the standard library only
and compares it with a computation made apart from the engine: the
paper-literal oracle's final mapping, the flood generator's ground
truth, or a longest-prefix match computed here from the served CSV.
Each check returns a list of problems (empty means the output is
correct).

Each check also has a self-test, :func:`damaged_outputs_caught`: it
damages a good output on purpose (one ingress swapped, one range
dropped, one ``HIT`` rewritten, ...) and confirms the check rejects
every damaged copy.  The benchmark runs the self-tests on the real
outputs of every run, so a check that stops catching anything shows up
as an incorrect run.
"""

from __future__ import annotations

import csv
import ipaddress
import re
from dataclasses import dataclass, replace

#: ``cidr_max`` per address family (``repro run`` defaults, Table 1)
CIDR_MAX = {4: 28, 6: 48}
Q = 0.95
#: s_ingress is printed with three decimals
RATIO_TOLERANCE = 0.0005 + 1e-9
#: counts are printed rounded to whole numbers
COUNT_TOLERANCE = 0.5 + 1e-9


@dataclass(frozen=True)
class Row:
    """One Table-3 record as printed in the output CSV."""

    version: int
    network: int
    masklen: int
    range: str
    ingress: str
    s_ingress: float
    s_ipcount: float
    candidates: tuple[tuple[str, float], ...]
    classified: bool

    @property
    def end(self) -> int:
        bits = 32 if self.version == 4 else 128
        return self.network + (1 << (bits - self.masklen))


def _parse_ingress(text: str) -> tuple[str, tuple[tuple[str, float], ...]]:
    head, paren, body = text.partition("(")
    if not paren or not body.endswith(")"):
        raise ValueError(f"malformed ingress field {text!r}")
    candidates = []
    for item in filter(None, body[:-1].split(",")):
        point, equals, weight = item.partition("=")
        if not equals:
            raise ValueError(f"malformed candidate {item!r}")
        candidates.append((point, float(weight)))
    return head, tuple(candidates)


def parse_records(text: str) -> list[Row]:
    """Rows of an IPD record CSV (raises ValueError on a malformed one)."""
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    if header != ["timestamp", "ip", "s_ingress", "s_ipcount", "n_cidr",
                  "range", "ingress", "classified"]:
        raise ValueError(f"unexpected header {header!r}")
    rows = []
    for fields in reader:
        if not fields:
            continue
        __, version, s_ingress, s_ipcount, __, range_text, ingress, classified = fields
        network = ipaddress.ip_network(range_text)
        if network.version != int(version):
            raise ValueError(f"range {range_text} is not IPv{version}")
        head, candidates = _parse_ingress(ingress)
        rows.append(Row(
            version=network.version,
            network=int(network.network_address),
            masklen=network.prefixlen,
            range=range_text,
            ingress=head,
            s_ingress=float(s_ingress),
            s_ipcount=float(s_ipcount),
            candidates=candidates,
            classified=classified == "1",
        ))
    return rows


# ------------------------------------------------------------------ checks


def check_structure(rows: list[Row]) -> list[str]:
    """The method's invariants: disjoint ranges, mask <= cidr_max,
    classified ranges dominated by one ingress (s_ingress >= q)."""
    problems = []
    if not any(row.classified for row in rows):
        problems.append("no classified range at all")
    for version in (4, 6):
        ordered = sorted(
            (row for row in rows if row.version == version),
            key=lambda row: row.network,
        )
        for previous, row in zip(ordered, ordered[1:]):
            if row.network < previous.end:
                problems.append(f"{row.range} overlaps {previous.range}")
    for row in rows:
        if row.masklen > CIDR_MAX[row.version]:
            problems.append(f"{row.range} is longer than cidr_max")
        if row.classified and row.s_ingress < Q:
            problems.append(f"{row.range} classified with s_ingress {row.s_ingress}")
    return problems


def check_oracle(rows: list[Row], oracle: list[dict]) -> list[str]:
    """The final mapping equals the ``ReferenceIPD`` oracle's: ranges,
    ingresses and counts exactly, ratios to the printed precision."""
    problems = []
    expected = {item["range"]: item for item in oracle}
    seen = {row.range: row for row in rows}
    for missing in sorted(expected.keys() - seen.keys()):
        problems.append(f"oracle range {missing} missing")
    for extra in sorted(seen.keys() - expected.keys()):
        problems.append(f"range {extra} not in the oracle's mapping")
    if len(seen) != len(rows):
        problems.append("a range is printed twice")
    for key in sorted(seen.keys() & expected.keys()):
        row, want = seen[key], expected[key]
        if row.ingress != want["ingress"] or row.classified != want["classified"]:
            problems.append(f"{key}: ingress {row.ingress} != {want['ingress']}")
        if abs(row.s_ipcount - want["s_ipcount"]) > COUNT_TOLERANCE:
            problems.append(f"{key}: s_ipcount {row.s_ipcount} != {want['s_ipcount']}")
        if abs(row.s_ingress - want["s_ingress"]) > RATIO_TOLERANCE:
            problems.append(f"{key}: s_ingress {row.s_ingress} != {want['s_ingress']}")
        got = dict(row.candidates)
        if got.keys() != want["candidates"].keys() or any(
            abs(got[point] - weight) > COUNT_TOLERANCE
            for point, weight in want["candidates"].items()
        ):
            problems.append(f"{key}: candidate counters differ")
    return problems


def check_identical(output: bytes, reference: bytes) -> list[str]:
    """The sharded output is byte-identical to the single engine's."""
    if output == reference:
        return []
    return ["output differs from the single-engine output of the same run"]


_PROCESSED = re.compile(r"processed ([\d,]+) flows")


def check_flood(rows: list[Row], stdout: str, meta: dict) -> list[str]:
    """Against the flood generator's ground truth: every trace row is
    reported processed, and no classified range carries a victim
    (flood) ingress that its own benign flows do not use."""
    problems = []
    match = _PROCESSED.search(stdout)
    processed = int(match.group(1).replace(",", "")) if match else -1
    if processed != meta["rows"]:
        problems.append(f"processed {processed} flows of {meta['rows']} trace rows")
    for row in rows:
        problems += _pollution(row, meta["victim_benign_sources"])
    return problems


def _pollution(row: Row, victims: dict[str, list[int]]) -> list[str]:
    if not row.classified:
        return []
    problems = []
    router, __, interfaces = row.ingress.partition(".")
    for interface in interfaces.split("+"):
        point = f"{router}.{interface}"
        if point in victims and not any(
            row.network <= source < row.end for source in victims[point]
        ):
            problems.append(f"{row.range} polluted: {point} carries no benign flow there")
    return problems


class LongestPrefixMatch:
    """A plain per-masklen dict LPM over served rows (IPv4)."""

    def __init__(self, rows: list[Row]) -> None:
        self.tables: dict[int, dict[int, Row]] = {}
        for row in rows:
            if row.version == 4:
                self.tables.setdefault(row.masklen, {})[row.network] = row
        self.masklens = sorted(self.tables, reverse=True)

    def lookup(self, address: int) -> "Row | None":
        for masklen in self.masklens:
            shift = 32 - masklen
            row = self.tables[masklen].get((address >> shift) << shift)
            if row is not None:
                return row
        return None


def check_answer(lpm: LongestPrefixMatch, request: list[int], lines: list[str]) -> list[str]:
    """One request's answer lines: ``HIT``/``MISS`` per address as the
    LPM says, and for ``MGET`` exactly one line per address plus ``END``."""
    if len(request) > 1:
        if len(lines) != len(request) + 1 or not lines[-1].startswith("END "):
            return [f"MGET of {len(request)} answered with {len(lines)} lines"]
        lines = lines[:-1]
    elif len(lines) != 1:
        return [f"GET answered with {len(lines)} lines"]
    problems = []
    for address, line in zip(request, lines):
        row = lpm.lookup(address)
        fields = line.split()
        text = str(ipaddress.IPv4Address(address))
        if row is None:
            if fields[:1] != ["MISS"]:
                problems.append(f"{text}: expected MISS, got {line!r}")
            continue
        router, __, interface = row.ingress.partition(".")
        if (len(fields) != 7 or fields[:4] != ["HIT", router, interface, row.range]
                or abs(float(fields[4]) - row.s_ingress) > RATIO_TOLERANCE):
            problems.append(f"{text}: expected HIT via {row.range} {row.ingress}, got {line!r}")
    return problems


def check_serve(lpm: LongestPrefixMatch, requests: list[list[int]],
                answers: dict[int, set[bytes]]) -> list[str]:
    """Every distinct answer received for every request of the mix."""
    problems = []
    for index, request in enumerate(requests):
        for answer in answers.get(index, ()):
            problems += check_answer(lpm, request, answer.decode().splitlines())
    return problems


# ------------------------------------------------------------------ self-tests


def _damaged_mappings(rows: list[Row]) -> dict[str, list[Row]]:
    classified = [i for i, row in enumerate(rows) if row.classified]
    first = classified[0]
    other = next(row.ingress for row in rows if row.ingress != rows[first].ingress)
    swapped = list(rows)
    swapped[first] = replace(rows[first], ingress=other)
    dropped = rows[:first] + rows[first + 1:]
    overlapping = rows + [rows[first]]
    weak = list(rows)
    weak[first] = replace(rows[first], s_ingress=Q - 0.01)
    return {
        "ingress swapped": swapped,
        "range dropped": dropped,
        "range duplicated": overlapping,
        "dominance below q": weak,
    }


def damaged_outputs_caught(workload: str, **context) -> list[str]:
    """Damage a good output in every way the workload's checks must
    catch; return the damages a check let through (empty = all caught)."""
    escaped = []
    rows: list[Row] = context["rows"]
    if workload in ("replay", "replay-mp"):
        for damage, broken in _damaged_mappings(rows).items():
            if damage in ("ingress swapped", "range dropped"):
                caught = check_oracle(broken, context["oracle"])
            else:
                caught = check_structure(broken)
            if not caught:
                escaped.append(damage)
        if workload == "replay-mp":
            output = context["output"]
            flipped = output[:-2] + bytes([output[-2] ^ 1]) + output[-1:]
            if not check_identical(flipped, context["reference"]):
                escaped.append("one byte flipped")
    elif workload == "flood-lossy":
        meta = context["meta"]
        victim = meta["flood_ingresses"][0]
        target = next((
            i for i, row in enumerate(rows)
            if _pollution(replace(row, ingress=victim), meta["victim_benign_sources"])
        ), None)
        if target is None:
            escaped.append("no range to pollute")
        else:
            polluted = list(rows)
            polluted[target] = replace(rows[target], ingress=victim)
            if not check_flood(polluted, context["stdout"], meta):
                escaped.append("victim ingress swapped in")
        short = context["stdout"].replace(
            f"processed {meta['rows']:,} flows", f"processed {meta['rows'] - 1:,} flows")
        if not check_flood(rows, short, meta):
            escaped.append("one row unreported")
    elif workload == "serve":
        lpm: LongestPrefixMatch = context["lpm"]
        requests: list[list[int]] = context["requests"]
        answers: dict[int, set[bytes]] = context["answers"]
        get = next(i for i, r in enumerate(requests)
                   if len(r) == 1 and lpm.lookup(r[0]) is not None and i in answers)
        mget = next(i for i, r in enumerate(requests) if len(r) > 1 and i in answers)
        fields = next(iter(answers[get])).decode().split()
        fields[1] += "x"
        rewritten = (" ".join(fields) + "\n").encode()
        if not check_serve(lpm, requests, {get: {rewritten}}):
            escaped.append("HIT rewritten")
        lines = next(iter(answers[mget])).decode().splitlines()
        short = ("\n".join(lines[1:]) + "\n").encode()
        if not check_serve(lpm, requests, {mget: {short}}):
            escaped.append("MGET line missing")
    return escaped
