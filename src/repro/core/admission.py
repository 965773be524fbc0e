"""Sketch-gated admission front-end for the ingest path.

At deployment scale most source prefixes are one-shot "mice" that never
accumulate to ``n_cidr``, yet every flow pays a full trie insert.  This
module inserts a staged *admit → promote → count* pipeline between
batch decode and trie ingest:

* a seeded **count-min sketch** (Azzana et al.'s Bloom-filter large-flow
  identification, generalized to weighted counts) tracks the volume of
  every masked source cheaply and off-trie;
* sources whose sketch estimate crosses the **promotion threshold**
  (Jurkiewicz's mice/elephant boundary) are promoted to the *elephant
  set* and admitted directly — with a cached leaf handle that bypasses
  the trie lookup entirely on subsequent batches;
* sub-threshold "mice" are **dropped**: only their sketch counts
  survive, so a source that keeps sending is promoted later (bounded
  accuracy loss, measured on the Fig. 6 benchmark).

Aging is wired to trace time (IPD001): the sketch halves on fixed
``age_seconds`` boundaries of the replayed clock, so a long-idle mouse
must re-earn its promotion.  All hashing is seeded (IPD002) via a
splitmix64 mix of an explicit seed — two controllers built from the
same :class:`AdmissionConfig` make identical decisions on the same
stream, which is what lets per-shard controllers merge.

Saturation safety: a sketch can only ever *over*-estimate, so admission
errors always fall toward admitting more.  When the sketch saturates —
its fill ratio crosses ``max_fill``, or the ``sketch_saturate`` fault
forces it — the controller degrades to admit-everything.  An elephant,
once promoted, is never dropped again.

The admitted/dropped counters are in flows, so with admission on
``admitted + dropped`` equals the flows ingested since the last drain;
``promoted`` counts sources.

The controller's state (sketch cells, elephant set, aging cursor)
round-trips through a versioned wire section (``CODEC_VERSION`` below,
IPD004-pinned as ``admission:2``) appended to engine blobs by
:meth:`IPD.to_bytes`, so checkpoint/resume and reshard-on-restore carry
admission state with the trie.  Version-1 sections still decode: a
``lossy`` one restores as before, and one written by the retired
``exact`` mode decodes to a :class:`RetiredExactSection` whose held
groups the engine folds straight into its trie (exact mode's output
always equalled admission off).
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as _np

from ..devtools.markers import hot_path
from ..topology.elements import IngressPoint
from .statecodec import StateCodecError, _Reader, _Writer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .rangetree import RangeNode

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionImage",
    "CODEC_VERSION",
    "CountMinSketch",
    "RetiredExactSection",
    "auto_sketch_width",
    "decode_admission",
    "encode_admission",
    "merge_admission_images",
]

#: bump when the admission wire section changes; pinned as ``admission:2``
CODEC_VERSION = 2

_MAGIC = b"IPDA"
_KIND_ADMISSION = 0x41  # 'A'

_FLAG_SATURATED = 1
#: version 1 only: set for ``lossy`` sections, clear for ``exact`` ones
_FLAG_V1_LOSSY = 2

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """One splitmix64 round; the seeded hash base for sketch rows."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _splitmix64_array(values: "object") -> "object":
    """:func:`_splitmix64` over a uint64 ndarray (wrapping arithmetic).

    Bit-for-bit identical to the scalar form: numpy uint64 ops wrap mod
    2^64 exactly as the masked Python-int version does, so both gate
    paths hash a key to the same sketch cells.
    """
    values = values + _np.uint64(0x9E3779B97F4A7C15)
    values = (values ^ (values >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return values ^ (values >> _np.uint64(31))


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning knobs for the admission front-end.

    ``promote_weight`` is the sketch estimate (flow count, or bytes with
    ``count_bytes`` params) at which a source is promoted to the
    elephant set; mice below it are dropped.  With flow weights,
    ``promote_weight=1.0`` promotes every source on first sight, so the
    gate drops nothing and its output equals admission off.
    """

    #: sketch estimate at which a source becomes an elephant
    promote_weight: float = 4.0
    #: cells per sketch row (rounded up to a power of two)
    width: int = 1 << 14
    #: independent hash rows
    depth: int = 4
    #: seed for the per-row hash salts (IPD002: always explicit)
    seed: int = 0x1905
    #: trace-time interval between sketch halvings
    age_seconds: float = 120.0
    #: nonzero-cell fill ratio beyond which the sketch counts as
    #: saturated and the controller degrades to admit-everything
    max_fill: float = 0.9

    def __post_init__(self) -> None:
        if self.width < 1 or self.depth < 1:
            raise ValueError("sketch width and depth must be >= 1")
        if self.promote_weight <= 0.0:
            raise ValueError("promote_weight must be positive")
        if self.age_seconds <= 0.0:
            raise ValueError("age_seconds must be positive")
        if not 0.0 < self.max_fill <= 1.0:
            raise ValueError("max_fill must be in (0, 1]")

    @classmethod
    def for_cardinality(
        cls,
        distinct_sources: int,
        *,
        width: Optional[int] = None,
        promote_weight: float = 4.0,
        depth: int = 4,
        seed: int = 0x1905,
        age_seconds: float = 120.0,
        max_fill: float = 0.9,
    ) -> "AdmissionConfig":
        """A config whose sketch is sized for *distinct_sources* keys.

        The width comes from :func:`auto_sketch_width` unless an
        explicit *width* overrides it — the hand-tuned knob stays
        available, the default stops saturating on source floods.
        """
        if width is None:
            width = auto_sketch_width(distinct_sources, max_fill=max_fill)
        return cls(
            promote_weight=promote_weight,
            width=width,
            depth=depth,
            seed=seed,
            age_seconds=age_seconds,
            max_fill=max_fill,
        )


#: the sizing rule targets half the saturation ceiling, leaving aging
#: lag and collision skew a factor-two cushion before degrade-to-admit
_AUTO_FILL_HEADROOM = 0.5

#: never auto-size below the historical default width
_MIN_AUTO_WIDTH = 1 << 14


def auto_sketch_width(
    distinct_sources: int,
    *,
    max_fill: float = 0.9,
    min_width: int = _MIN_AUTO_WIDTH,
) -> int:
    """Smallest power-of-two row width that survives *distinct_sources*.

    After ``n`` distinct keys hash into a row of ``w`` cells, the
    expected nonzero fraction is ``1 - (1 - 1/w)^n ≈ 1 - exp(-n/w)``.
    The controller degrades to admit-everything at ``max_fill``, so the
    rule solves for the width whose expected fill is half that ceiling
    (``w >= n / -ln(1 - max_fill/2)``) and rounds up to a power of two.
    At the default ``max_fill=0.9`` a 100k-source flood sizes to
    ``2^18`` — the width the admission benchmark previously had to
    hand-raise to stay unsaturated.
    """
    if distinct_sources < 0:
        raise ValueError("distinct_sources must be >= 0")
    if not 0.0 < max_fill <= 1.0:
        raise ValueError("max_fill must be in (0, 1]")
    target_fill = max_fill * _AUTO_FILL_HEADROOM
    needed = distinct_sources / -math.log(1.0 - target_fill)
    width = min_width
    while width < needed:
        width <<= 1
    return width


class CountMinSketch:
    """A seeded, weighted count-min sketch with trace-time aging.

    Estimates only ever err upward (hash collisions add foreign weight),
    so a decision gated on ``estimate >= threshold`` can admit a mouse
    early but can never starve an elephant — the safe direction for an
    admission filter.  ``halve`` implements aging: all cells decay by
    half and the fill count is retightened.
    """

    __slots__ = ("width", "depth", "_mask", "_salts", "cells", "fill")

    def __init__(self, width: int, depth: int, seed: int) -> None:
        # round up to a power of two so row indexing is a mask
        actual = 1
        while actual < width:
            actual <<= 1
        self.width = actual
        self.depth = depth
        self._mask = actual - 1
        self._salts = tuple(
            _splitmix64(seed ^ (row * 0x9E3779B97F4A7C15)) for row in range(depth)
        )
        self.cells = array("d", bytes(8 * actual * depth))
        self.fill = 0

    def add(self, key: int, weight: float) -> float:
        """Fold *weight* into every row; returns the updated estimate."""
        cells = self.cells
        mask = self._mask
        width = self.width
        base = 0
        fill = 0
        estimate = float("inf")
        for salt in self._salts:
            index = base + (_splitmix64((key & _MASK64) ^ (key >> 64) ^ salt) & mask)
            value = cells[index]
            if value == 0.0:
                fill += 1
            value += weight
            cells[index] = value
            if value < estimate:
                estimate = value
            base += width
        self.fill += fill
        return estimate

    def estimate(self, key: int) -> float:
        """The current (over-)estimate for *key*, without mutating."""
        cells = self.cells
        mask = self._mask
        width = self.width
        base = 0
        estimate = float("inf")
        for salt in self._salts:
            value = cells[base + (_splitmix64((key & _MASK64) ^ (key >> 64) ^ salt) & mask)]
            if value < estimate:
                estimate = value
            base += width
        return estimate

    def halve(self) -> None:
        """Age every cell by half; cells that drop below 0.5 reset to zero.

        Runs in place on a numpy view of the cell buffer; the result is
        bit-identical to halving each cell in a Python loop.
        """
        cells = _np.frombuffer(self.cells, dtype=_np.float64)
        cells *= 0.5
        cells[cells < 0.5] = 0.0
        self.fill = int(_np.count_nonzero(cells))

    def clear(self) -> None:
        """Drop all counts (used when aging skips many intervals)."""
        self.cells = array("d", bytes(8 * self.width * self.depth))
        self.fill = 0

    @property
    def fill_ratio(self) -> float:
        """Fraction of nonzero cells across all rows."""
        return self.fill / (self.width * self.depth)

    def sparse_cells(self) -> list[tuple[int, float]]:
        """The nonzero cells as ``(index, value)`` pairs (codec form)."""
        return [
            (index, value)
            for index, value in enumerate(self.cells)
            if value != 0.0
        ]

    def load_sparse(self, pairs: "list[tuple[int, float]]") -> None:
        """Replace the cell contents from codec ``(index, value)`` pairs."""
        self.clear()
        cells = self.cells
        size = len(cells)
        fill = 0
        for index, value in pairs:
            if not 0 <= index < size:
                raise StateCodecError(
                    f"sketch cell index {index} out of range (size {size})"
                )
            if value != 0.0 and cells[index] == 0.0:
                fill += 1
            cells[index] = value
        self.fill = fill

    def merge(self, other: "CountMinSketch") -> None:
        """Cellwise-add *other* (same geometry and salts required)."""
        if (
            self.width != other.width
            or self.depth != other.depth
            or self._salts != other._salts
        ):
            raise StateCodecError(
                "cannot merge sketches with different geometry or seed"
            )
        cells = self.cells
        fill = 0
        for index, value in enumerate(other.cells):
            if value == 0.0:
                continue
            if cells[index] == 0.0:
                fill += 1
            cells[index] += value
        self.fill += fill


@dataclass
class AdmissionImage:
    """Codec-neutral snapshot of a controller's state.

    ``sketches`` holds the sparse nonzero cells per address family.
    """

    promote_weight: float
    width: int
    depth: int
    seed: int
    age_seconds: float
    max_fill: float
    #: aging cursor: the last trace-time boundary applied (None = unset)
    age_boundary: Optional[int] = None
    saturated: bool = False
    #: version -> [(cell index, value), ...]
    sketches: dict[int, list] = field(default_factory=dict)
    #: version -> [masked ip, ...]
    elephants: dict[int, list] = field(default_factory=dict)

    def config(self) -> AdmissionConfig:
        """The :class:`AdmissionConfig` this state was produced under."""
        return AdmissionConfig(
            promote_weight=self.promote_weight,
            width=self.width,
            depth=self.depth,
            seed=self.seed,
            age_seconds=self.age_seconds,
            max_fill=self.max_fill,
        )


@dataclass
class RetiredExactSection:
    """A version-1 admission section written by the retired ``exact`` mode.

    Exact mode held mice back and replayed them before every sweep, so
    its output always equalled admission off.  Such a section restores
    as an admission-off engine: ``held`` (version -> ``{masked:
    [{ingress: weight}, newest, oldest]}``, in insertion order) are the
    groups it was still holding, which the engine folds straight into
    its trie.
    """

    held: dict[int, dict[int, list]] = field(default_factory=dict)


class AdmissionController:
    """Per-engine admission state: sketch, elephant set, leaf handles.

    One controller fronts one engine's ingest path.  The engine runs
    :meth:`prefilter_rows` on raw batch columns and :meth:`filter_groups`
    on every pre-grouped batch; only the admitted groups reach the trie.
    """

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self._sketches: dict[int, CountMinSketch] = {}
        self._elephants: dict[int, set[int]] = {}
        self._handles: dict[int, dict[int, "RangeNode"]] = {}
        # lazily rebuilt sorted-ndarray mirror of each elephant set,
        # keyed by version, cached as (herd size, array) — promotions
        # only ever grow the herd, so a size match means it is current
        self._herd_arrays: dict[int, "tuple[int, object]"] = {}
        self._age_boundary: Optional[int] = None
        self._saturated = False
        # decision counters since the last take_counters() drain:
        # admitted and dropped in flows, promoted in sources
        self.admitted = 0
        self.dropped = 0
        self.promoted = 0

    # ------------------------------------------------------------------ plumbing

    def sketch(self, version: int) -> CountMinSketch:
        """The (lazily created) per-family sketch."""
        sketch = self._sketches.get(version)
        if sketch is None:
            config = self.config
            sketch = CountMinSketch(config.width, config.depth, config.seed)
            self._sketches[version] = sketch
        return sketch

    def elephants(self, version: int) -> set[int]:
        """The per-family promoted-source set."""
        herd = self._elephants.get(version)
        if herd is None:
            herd = set()
            self._elephants[version] = herd
        return herd

    def handles(self, version: int) -> "dict[int, RangeNode]":
        """Cached elephant leaf handles (the lookup-bypass fast path)."""
        handles = self._handles.get(version)
        if handles is None:
            handles = {}
            self._handles[version] = handles
        return handles

    @property
    def saturated(self) -> bool:
        """True when the controller has degraded to admit-everything."""
        if self._saturated:
            return True
        max_fill = self.config.max_fill
        for sketch in self._sketches.values():
            if sketch.fill_ratio > max_fill:
                return True
        return False

    def saturate(self) -> None:
        """Force admit-everything (the ``sketch_saturate`` fault site)."""
        self._saturated = True

    # ------------------------------------------------------------------ decisions

    def _herd_array(self, version: int) -> "object":
        """The elephant set as a sorted uint64 ndarray (vectorized gate)."""
        herd = self.elephants(version)
        cached = self._herd_arrays.get(version)
        if cached is not None and cached[0] == len(herd):
            return cached[1]
        mirror = _np.fromiter(herd, dtype=_np.uint64, count=len(herd))
        mirror.sort()
        self._herd_arrays[version] = (len(herd), mirror)
        return mirror

    @hot_path
    def prefilter_rows(
        self,
        version: int,
        shift: int,
        sources: "list[int]",
        weights: "Optional[list[int]]" = None,
    ) -> "Optional[list[int]]":
        """Vectorized lossy gate over raw batch columns.

        Runs *before* the per-flow grouping pass, so a dropped mouse
        never pays any Python-level per-flow work: the whole batch is
        masked, sketch-counted and thresholded as ndarray operations,
        and only the surviving row indices are returned for grouping.
        Returns ``None`` to admit every row — saturation, or a mask
        shift ≥ 64 bits (v6 keys exceed uint64; those batches take the
        per-group path).  Dropped rows are counted here, in flows.

        Decision semantics match :meth:`filter_groups` on the same
        batch: weights fold into the same seeded cells (integer-valued,
        so the float sums are exact regardless of add order) and every
        source's estimate is read after the whole batch's weight is in,
        exactly like the per-group path's one summed add per source.
        Promoted sources join the shared elephant set, so the group
        path's herd fast-path and cached leaf handles pick them up.
        """
        if shift >= 64 or self.saturated:
            return None
        try:
            raw = _np.array(sources, dtype=_np.uint64)
        except (OverflowError, TypeError):  # stray >64-bit key: group path
            return None
        shift_bits = _np.uint64(shift)
        masked = (raw >> shift_bits) << shift_bits
        folded = (
            None
            if weights is None
            else _np.array(weights, dtype=_np.float64)
        )

        # elephants never touch the sketch (same as the group path's
        # herd fast path); only the mice rows feed it below
        herd_mirror = self._herd_array(version)
        if herd_mirror.size:  # type: ignore[attr-defined]
            elephant = _np.isin(masked, herd_mirror)
            mice_rows = _np.nonzero(~elephant)[0]
            if mice_rows.size == 0:
                return None  # the whole batch is promoted traffic
            mice_keys = masked[mice_rows]
            mice_weights = None if folded is None else folded[mice_rows]
        else:
            elephant = None
            mice_rows = None
            mice_keys = masked
            mice_weights = folded

        sketch = self.sketch(version)
        width = sketch.width
        cells = _np.frombuffer(sketch.cells, dtype=_np.float64)
        index_mask = _np.uint64(width - 1)
        estimate = None
        for row, salt in enumerate(sketch._salts):
            indices = (
                (_splitmix64_array(mice_keys ^ _np.uint64(salt)) & index_mask)
                .astype(_np.intp)
            )
            row_cells = cells[row * width:(row + 1) * width]
            row_cells += _np.bincount(
                indices, weights=mice_weights, minlength=width
            )
            gathered = row_cells[indices]
            estimate = (
                gathered
                if estimate is None
                else _np.minimum(estimate, gathered)
            )
        sketch.fill = int(_np.count_nonzero(cells))
        if sketch.fill_ratio > self.config.max_fill:
            return None  # saturated: degrade to admit-everything

        promoted = estimate >= self.config.promote_weight
        if promoted.any():
            herd = self.elephants(version)
            new_keys = _np.unique(mice_keys[promoted]).tolist()
            herd.update(new_keys)
            self.promoted += len(new_keys)
        total = len(raw)
        if elephant is None:
            keep = promoted
        else:
            keep = elephant
            keep[mice_rows[promoted]] = True
        kept = int(_np.count_nonzero(keep))
        if kept == total:
            return None
        self.dropped += total - kept
        rows: "list[int]" = _np.nonzero(keep)[0].tolist()
        return rows

    @hot_path
    def filter_groups(
        self,
        version: int,
        groups: "dict[int, list]",
        flows: Optional[int] = None,
        rows: "Iterable[int]" = (),
    ) -> "dict[int, list]":
        """Gate pre-grouped samples; returns the admitted subset.

        Each group is ``masked -> [by_ingress, newest, oldest]`` exactly
        as built by the engine's batch grouping pass.  Elephants pass
        straight through; unknown sources update the sketch and are
        promoted (admitted) or dropped.  A saturated controller admits
        every group.

        The admitted/dropped counters are in flows: *flows* is how many
        flows the groups were built from and *rows* yields the masked
        source of each of them (default: one flow per group).  *rows* is
        walked only when the gate drops a group, so a batch whose groups
        all pass costs no extra pass.
        """
        if self.saturated:
            admitted = groups
        else:
            threshold = self.config.promote_weight
            herd = self.elephants(version)
            sketch_add = self.sketch(version).add
            admitted = {}
            n_promoted = 0
            for masked, group in groups.items():
                if masked in herd:
                    admitted[masked] = group
                    continue
                weight = 0.0
                for value in group[0].values():
                    weight += value
                if sketch_add(masked, weight) >= threshold:
                    herd.add(masked)
                    n_promoted += 1
                    admitted[masked] = group
            self.promoted += n_promoted
        if flows is None:
            flows = len(groups)
            rows = groups
        if len(admitted) == len(groups):
            self.admitted += flows
            return admitted
        kept = 0
        for masked in rows:
            if masked in admitted:
                kept += 1
        self.admitted += kept
        self.dropped += flows - kept
        return admitted

    # ------------------------------------------------------------------ aging

    def age_to(self, now: float) -> int:
        """Advance the trace-time aging cursor; returns halvings applied.

        The sketch halves once per elapsed ``age_seconds`` boundary of
        the replayed clock.  Skipping many intervals clears the sketch
        outright (2^-53 of anything is zero weight).
        """
        boundary = int(now // self.config.age_seconds)
        previous = self._age_boundary
        self._age_boundary = boundary
        if previous is None or boundary <= previous:
            return 0
        steps = boundary - previous
        if steps >= 53:
            for sketch in self._sketches.values():
                sketch.clear()
            return steps
        for sketch in self._sketches.values():
            for __ in range(steps):
                sketch.halve()
        return steps

    def take_counters(self) -> tuple[int, int, int]:
        """Drain the (admitted flows, dropped flows, promoted sources) counters."""
        counters = (self.admitted, self.dropped, self.promoted)
        self.admitted = 0
        self.dropped = 0
        self.promoted = 0
        return counters

    # ------------------------------------------------------------------ state io

    def to_image(self) -> AdmissionImage:
        """Snapshot the controller state as a codec-neutral image."""
        config = self.config
        return AdmissionImage(
            promote_weight=config.promote_weight,
            width=config.width,
            depth=config.depth,
            seed=config.seed,
            age_seconds=config.age_seconds,
            max_fill=config.max_fill,
            age_boundary=self._age_boundary,
            saturated=self._saturated,
            sketches={
                version: sketch.sparse_cells()
                for version, sketch in self._sketches.items()
                if sketch.fill
            },
            elephants={
                version: sorted(herd)
                for version, herd in self._elephants.items()
                if herd
            },
        )

    @classmethod
    def from_image(cls, image: AdmissionImage) -> "AdmissionController":
        """Rebuild a controller from an image (checkpoint restore)."""
        controller = cls(image.config())
        controller._age_boundary = image.age_boundary
        controller._saturated = image.saturated
        for version, pairs in image.sketches.items():
            controller.sketch(version).load_sparse(pairs)
        for version, herd in image.elephants.items():
            controller.elephants(version).update(herd)
        return controller

    def to_bytes(self) -> bytes:
        """Serialize the controller state as one versioned section."""
        return encode_admission(self.to_image())


# ---------------------------------------------------------------------------
# wire section (appended to engine blobs; pinned as admission:2)
# ---------------------------------------------------------------------------


def encode_admission(image: AdmissionImage) -> bytes:
    """Serialize an admission image as one versioned trailing section."""
    writer = _Writer()
    writer.raw(_MAGIC)
    writer.byte(_KIND_ADMISSION)
    writer.byte(CODEC_VERSION)
    writer.byte(_FLAG_SATURATED if image.saturated else 0)
    writer.float(image.promote_weight)
    writer.uvarint(image.width)
    writer.uvarint(image.depth)
    writer.uvarint(image.seed)
    writer.float(image.age_seconds)
    writer.float(image.max_fill)
    if image.age_boundary is None:
        writer.byte(0)
    else:
        writer.byte(1)
        writer.uvarint(image.age_boundary)
    writer.uvarint(len(image.sketches))
    for version in sorted(image.sketches):
        writer.byte(version)
        pairs = image.sketches[version]
        writer.uvarint(len(pairs))
        for index, value in pairs:
            writer.uvarint(index)
            writer.float(value)
    writer.uvarint(len(image.elephants))
    for version in sorted(image.elephants):
        herd = image.elephants[version]
        writer.byte(version)
        writer.uvarint(len(herd))
        for masked in herd:
            writer.uvarint(masked)
    return bytes(writer.buffer)


def decode_admission(
    data: "bytes | bytearray | memoryview",
) -> "AdmissionImage | RetiredExactSection":
    """Parse an admission section.

    Version 2 and version-1 ``lossy`` sections decode to an
    :class:`AdmissionImage`; a version-1 section of the retired
    ``exact`` mode decodes to a :class:`RetiredExactSection`.
    """
    reader = _Reader(data)
    with _admission_damage_reported(reader):
        if len(data) < 5 or bytes(data[:4]) != _MAGIC:
            raise StateCodecError("not an admission section (bad magic)")
        reader.offset = 4
        kind = reader.byte()
        if kind != _KIND_ADMISSION:
            raise StateCodecError(
                f"unexpected admission section kind {kind:#x}"
            )
        version = reader.byte()
        if not 1 <= version <= CODEC_VERSION:
            raise StateCodecError(
                f"admission section uses codec version {version}; this "
                f"build reads up to {CODEC_VERSION}"
            )
        flags = reader.byte()
        promote_weight = reader.float()
        width = reader.uvarint()
        depth = reader.uvarint()
        seed = reader.uvarint()
        age_seconds = reader.float()
        max_fill = reader.float()
        age_boundary = reader.uvarint() if reader.byte() else None
        sketches: dict[int, list[tuple[int, float]]] = {}
        for __ in range(reader.uvarint()):
            family = reader.byte()
            sketches[family] = [
                (reader.uvarint(), reader.float())
                for __ in range(reader.uvarint())
            ]
        elephants: dict[int, list[int]] = {}
        for __ in range(reader.uvarint()):
            family = reader.byte()
            elephants[family] = [
                reader.uvarint() for __ in range(reader.uvarint())
            ]
        if version == 1:
            held = _read_v1_held(reader)
            if not flags & _FLAG_V1_LOSSY:
                return RetiredExactSection(held)
            if held:
                # lossy mode dropped mice instead of holding them
                raise StateCodecError(
                    "version-1 lossy admission section carries held groups"
                )
        return AdmissionImage(
            promote_weight=promote_weight,
            width=width,
            depth=depth,
            seed=seed,
            age_seconds=age_seconds,
            max_fill=max_fill,
            age_boundary=age_boundary,
            saturated=bool(flags & _FLAG_SATURATED),
            sketches=sketches,
            elephants=elephants,
        )


def _read_v1_held(reader: _Reader) -> dict[int, dict[int, list]]:
    """The version-1 held-group list: version -> {masked: group}."""
    held: dict[int, dict[int, list]] = {}
    for __ in range(reader.uvarint()):
        family = reader.byte()
        groups: dict[int, list] = {}
        for __ in range(reader.uvarint()):
            masked = reader.uvarint()
            newest = reader.float()
            oldest = reader.float()
            by_ingress: dict[IngressPoint, float] = {}
            for __ in range(reader.uvarint()):
                ingress = reader.ingress()
                by_ingress[ingress] = reader.float()
            groups[masked] = [by_ingress, newest, oldest]
        held[family] = groups
    return held


def merge_admission_images(
    images: "list[Optional[AdmissionImage]]",
) -> Optional[AdmissionImage]:
    """Merge per-shard admission images into one engine-wide image.

    Sketches add cellwise (identical geometry/seed required — shards are
    always built from one config), elephant sets union, and saturation
    is sticky across the fleet.  Over-counting from the merge
    only ever admits *more*, which is the safe direction.
    """
    images = [image for image in images if image is not None]
    if not images:
        return None
    first = images[0]
    merged_sketches: dict[int, CountMinSketch] = {}
    merged_elephants: dict[int, set[int]] = {}
    saturated = False
    age_boundary: Optional[int] = None
    for image in images:
        if (
            image.width != first.width
            or image.depth != first.depth
            or image.seed != first.seed
        ):
            raise StateCodecError(
                "cannot merge admission images with different configs"
            )
        saturated = saturated or image.saturated
        if image.age_boundary is not None:
            age_boundary = (
                image.age_boundary
                if age_boundary is None
                else max(age_boundary, image.age_boundary)
            )
        for version, pairs in image.sketches.items():
            sketch = merged_sketches.get(version)
            if sketch is None:
                sketch = CountMinSketch(first.width, first.depth, first.seed)
                merged_sketches[version] = sketch
            incoming = CountMinSketch(first.width, first.depth, first.seed)
            incoming.load_sparse(pairs)
            sketch.merge(incoming)
        for version, herd in image.elephants.items():
            merged_elephants.setdefault(version, set()).update(herd)
    return AdmissionImage(
        promote_weight=first.promote_weight,
        width=first.width,
        depth=first.depth,
        seed=first.seed,
        age_seconds=first.age_seconds,
        max_fill=first.max_fill,
        age_boundary=age_boundary,
        saturated=saturated,
        sketches={
            version: sketch.sparse_cells()
            for version, sketch in merged_sketches.items()
        },
        elephants={
            version: sorted(herd)
            for version, herd in merged_elephants.items()
        },
    )


@contextmanager
def _admission_damage_reported(reader: _Reader) -> Iterator[None]:
    """Normalize admission-section decode failures into codec errors."""
    try:
        yield
    except StateCodecError as exc:
        if exc.offset is None:
            exc.offset = reader.offset
        raise
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        raise StateCodecError(
            f"damaged admission section at offset {reader.offset}: {exc!r}",
            offset=reader.offset,
        ) from exc
