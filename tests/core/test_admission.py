"""The admission front-end in isolation: sketch, gate, codec, aging.

The integration contracts (promote-all lossy ≡ off byte-identity
through every runtime topology, saturation chaos, version-1 blobs) live in
``tests/runtime/test_admission_equivalence.py`` and ``tests/chaos``;
this suite pins the controller's own semantics.
"""

import random
from array import array

import pytest

from repro.core.admission import (
    AdmissionConfig,
    AdmissionController,
    CountMinSketch,
    auto_sketch_width,
    decode_admission,
    encode_admission,
    merge_admission_images,
)
from repro.core.iputil import IPV4
from repro.core.statecodec import StateCodecError
from repro.topology.elements import IngressPoint

A = IngressPoint("R1", "et0")
B = IngressPoint("R2", "et1")


def group(weight=1.0, ingress=A, newest=10.0, oldest=10.0):
    return [{ingress: weight}, newest, oldest]


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"width": 0},
        {"depth": 0},
        {"promote_weight": 0.0},
        {"promote_weight": -1.0},
        {"age_seconds": 0.0},
        {"max_fill": 0.0},
        {"max_fill": 1.5},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionConfig(**kwargs)

    def test_off_is_not_a_controller_mode(self):
        # "off" means no controller at all; the config has no mode field
        with pytest.raises(TypeError):
            AdmissionConfig(mode="off")


class TestAutoSketchWidth:
    """The cardinality-driven sizing rule: w >= n / -ln(1 - max_fill/2)."""

    def test_flood_scale_matches_hand_raised_width(self):
        # the perf benchmark used to hand-raise width to 2^18 for its
        # 100k-source flood; the rule must land on the same answer
        assert auto_sketch_width(100_000) == 1 << 18

    def test_small_cardinalities_hit_the_floor(self):
        assert auto_sketch_width(0) == 1 << 14
        assert auto_sketch_width(5_000) == 1 << 14

    def test_width_is_a_power_of_two(self):
        for n in (1, 999, 12_345, 100_000, 1_000_000):
            width = auto_sketch_width(n)
            assert width & (width - 1) == 0

    def test_monotone_in_cardinality(self):
        widths = [auto_sketch_width(n) for n in (10, 10_000, 100_000, 10**6)]
        assert widths == sorted(widths)

    def test_expected_fill_stays_under_max_fill(self):
        # 1 - exp(-n/w) is the expected row fill after n distinct keys;
        # the rule targets half of max_fill, so it must clear max_fill
        import math

        for n in (10_000, 100_000, 1_000_000):
            width = auto_sketch_width(n, max_fill=0.9)
            assert 1.0 - math.exp(-n / width) <= 0.9 * 0.5 + 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            auto_sketch_width(-1)
        with pytest.raises(ValueError):
            auto_sketch_width(100, max_fill=0.0)
        with pytest.raises(ValueError):
            auto_sketch_width(100, max_fill=1.5)

    def test_for_cardinality_autosizes(self):
        config = AdmissionConfig.for_cardinality(100_000)
        assert config.width == 1 << 18

    def test_for_cardinality_explicit_width_wins(self):
        config = AdmissionConfig.for_cardinality(100_000, width=1 << 15)
        assert config.width == 1 << 15


class TestCountMinSketch:
    def test_width_rounds_up_to_power_of_two(self):
        assert CountMinSketch(100, 2, seed=1).width == 128

    def test_estimates_only_err_upward(self):
        sketch = CountMinSketch(64, 4, seed=7)
        truth = {}
        for key in range(200):
            weight = float(1 + key % 5)
            sketch.add(key * 16, weight)
            truth[key * 16] = weight
        for key, weight in truth.items():
            assert sketch.estimate(key) >= weight

    def test_seeded_hashing_is_deterministic(self):
        first = CountMinSketch(256, 3, seed=42)
        second = CountMinSketch(256, 3, seed=42)
        for key in range(100):
            first.add(key, 1.0)
            second.add(key, 1.0)
        assert list(first.cells) == list(second.cells)

    def test_different_seeds_hash_differently(self):
        first = CountMinSketch(256, 3, seed=1)
        second = CountMinSketch(256, 3, seed=2)
        for key in range(100):
            first.add(key, 1.0)
            second.add(key, 1.0)
        assert list(first.cells) != list(second.cells)

    def test_halve_decays_and_retightens_fill(self):
        sketch = CountMinSketch(64, 2, seed=3)
        sketch.add(1, 4.0)
        sketch.add(2, 0.9)  # decays below 0.5 after one halving
        fill_before = sketch.fill
        sketch.halve()
        assert sketch.estimate(1) == 2.0
        assert sketch.estimate(2) == 0.0
        assert sketch.fill < fill_before

    def test_halve_matches_scalar_reference(self):
        rng = random.Random(13)
        sketch = CountMinSketch(256, 4, seed=3)
        for index in range(len(sketch.cells)):
            roll = rng.random()
            if roll < 0.3:
                sketch.cells[index] = float(rng.randint(1, 9))
            elif roll < 0.6:
                sketch.cells[index] = rng.uniform(0.0, 3.0)
        expected = array("d", sketch.cells)
        for index, value in enumerate(expected):
            value *= 0.5
            expected[index] = 0.0 if value < 0.5 else value
        sketch.halve()
        assert sketch.cells.tobytes() == expected.tobytes()
        assert sketch.fill == sum(1 for value in expected if value != 0.0)

    def test_sparse_roundtrip(self):
        sketch = CountMinSketch(128, 3, seed=5)
        for key in range(50):
            sketch.add(key * 3, float(key + 1))
        clone = CountMinSketch(128, 3, seed=5)
        clone.load_sparse(sketch.sparse_cells())
        assert list(clone.cells) == list(sketch.cells)
        assert clone.fill == sketch.fill

    def test_load_sparse_rejects_out_of_range(self):
        sketch = CountMinSketch(64, 1, seed=1)
        with pytest.raises(StateCodecError, match="out of range"):
            sketch.load_sparse([(10_000, 1.0)])

    def test_merge_is_cellwise(self):
        left = CountMinSketch(64, 2, seed=9)
        right = CountMinSketch(64, 2, seed=9)
        left.add(1, 2.0)
        right.add(1, 3.0)
        right.add(2, 1.0)
        left.merge(right)
        assert left.estimate(1) >= 5.0
        assert left.estimate(2) >= 1.0

    def test_merge_rejects_mismatched_geometry(self):
        left = CountMinSketch(64, 2, seed=9)
        with pytest.raises(StateCodecError, match="geometry or seed"):
            left.merge(CountMinSketch(128, 2, seed=9))
        with pytest.raises(StateCodecError, match="geometry or seed"):
            left.merge(CountMinSketch(64, 2, seed=10))


class TestFilterGroups:
    def config(self, **kwargs):
        kwargs.setdefault("promote_weight", 4.0)
        return AdmissionConfig(**kwargs)

    def test_lossy_drops_mice_but_keeps_counts(self):
        controller = AdmissionController(self.config())
        for _ in range(3):
            assert controller.filter_groups(IPV4, {1600: group(1.0)}) == {}
        admitted = controller.filter_groups(IPV4, {1600: group(1.0)})
        assert 1600 in admitted
        # dropped history is gone: only the promoting observation lands
        assert admitted[1600][0][A] == 1.0

    def test_elephant_passes_without_sketch_update(self):
        controller = AdmissionController(self.config())
        controller.filter_groups(IPV4, {1600: group(10.0)})  # promotes
        estimate_before = controller.sketch(IPV4).estimate(1600)
        admitted = controller.filter_groups(IPV4, {1600: group(2.0)})
        assert 1600 in admitted
        assert controller.sketch(IPV4).estimate(1600) == estimate_before

    def test_counters_drain(self):
        controller = AdmissionController(self.config())
        controller.filter_groups(IPV4, {16: group(1.0), 32: group(9.0)})
        # (admitted flows, dropped flows, promoted sources)
        assert controller.take_counters() == (1, 1, 1)
        assert controller.take_counters() == (0, 0, 0)

    def test_counters_are_in_flows(self):
        controller = AdmissionController(self.config())
        groups = {16: group(2.0), 32: group(5.0)}
        rows = [16, 32, 32, 16, 32, 32, 32]
        controller.filter_groups(IPV4, groups, len(rows), rows)
        assert controller.take_counters() == (5, 2, 1)

    def test_all_admitted_never_walks_rows(self):
        controller = AdmissionController(self.config())
        controller.elephants(IPV4).add(16)

        def rows():
            raise AssertionError("rows walked although nothing was dropped")
            yield  # pragma: no cover

        controller.filter_groups(IPV4, {16: group(1.0)}, 3, rows())
        assert controller.take_counters() == (3, 0, 0)

    def test_saturation_admits_everything(self):
        controller = AdmissionController(self.config())
        controller.saturate()
        groups = {1600: group(1.0), 3200: group(1.0)}
        assert controller.filter_groups(IPV4, groups) == groups
        assert controller.take_counters() == (2, 0, 0)

    def test_fill_ratio_saturation_degrades(self):
        config = AdmissionConfig(
            width=4, depth=1, max_fill=0.5, promote_weight=100.0
        )
        controller = AdmissionController(config)
        for key in range(64):
            controller.filter_groups(IPV4, {key * 16: group(1.0)})
        assert controller.saturated
        admitted = controller.filter_groups(IPV4, {999_952: group(1.0)})
        assert 999_952 in admitted  # degraded to admit-everything

    def test_families_are_independent(self):
        controller = AdmissionController(self.config())
        controller.filter_groups(IPV4, {1600: group(10.0)})
        assert 1600 in controller.elephants(IPV4)
        assert 1600 not in controller.elephants(6)


class TestPrefilterRows:
    """The vectorized lossy gate must agree with the per-group path."""

    def config(self, **kwargs):
        kwargs.setdefault("promote_weight", 4.0)
        return AdmissionConfig(**kwargs)

    def test_wide_shift_declines(self):
        controller = AdmissionController(self.config())
        assert controller.prefilter_rows(6, 80, [16, 32]) is None

    def test_saturated_declines(self):
        controller = AdmissionController(self.config())
        controller.saturate()
        assert controller.prefilter_rows(IPV4, 4, [16, 32]) is None

    def test_oversized_key_falls_back(self):
        controller = AdmissionController(self.config())
        assert controller.prefilter_rows(IPV4, 4, [16, 1 << 80]) is None

    def test_matches_group_path_decisions_and_sketch(self):
        sources = [((i * 2654435761) % 4096) * 16 + (i % 16) for i in range(3000)]
        shift = 4

        vectorized = AdmissionController(self.config())
        kept = vectorized.prefilter_rows(IPV4, shift, sources)
        assert kept is not None

        scalar = AdmissionController(self.config())
        groups: dict[int, list] = {}
        for src in sources:
            masked = (src >> shift) << shift
            entry = groups.get(masked)
            if entry is None:
                groups[masked] = group(1.0)
            else:
                entry[0][A] += 1.0
        scalar.filter_groups(IPV4, groups)

        assert vectorized.elephants(IPV4) == scalar.elephants(IPV4)
        assert (
            list(vectorized.sketch(IPV4).cells)
            == list(scalar.sketch(IPV4).cells)
        )
        assert vectorized.sketch(IPV4).fill == scalar.sketch(IPV4).fill
        # every kept row's masked source is promoted; none were dropped
        herd = vectorized.elephants(IPV4)
        for row in kept:
            assert ((sources[row] >> shift) << shift) in herd

    def test_elephants_skip_the_sketch(self):
        controller = AdmissionController(self.config())
        assert controller.prefilter_rows(IPV4, 4, [1600] * 10) is None or True
        controller.elephants(IPV4).add(1600)
        cells_before = list(controller.sketch(IPV4).cells)
        result = controller.prefilter_rows(IPV4, 4, [1600, 1601, 1602])
        assert result is None  # all three rows mask to the elephant 1600
        assert list(controller.sketch(IPV4).cells) == cells_before

    def test_promotion_within_batch(self):
        controller = AdmissionController(self.config())
        kept = controller.prefilter_rows(IPV4, 4, [1600] * 5 + [3200])
        # 1600 accumulates weight 5 >= 4 and promotes; 3200 stays a mouse
        assert kept == [0, 1, 2, 3, 4]
        assert 1600 in controller.elephants(IPV4)
        assert 3200 not in controller.elephants(IPV4)

    def test_byte_weights(self):
        controller = AdmissionController(self.config(promote_weight=1000.0))
        kept = controller.prefilter_rows(
            IPV4, 4, [1600, 3200], weights=[1500, 10]
        )
        assert kept == [0]
        assert 1600 in controller.elephants(IPV4)


class TestAging:
    def test_age_to_halves_per_boundary(self):
        controller = AdmissionController(
            AdmissionConfig(age_seconds=60.0)
        )
        controller.sketch(IPV4).add(16, 8.0)
        assert controller.age_to(30.0) == 0  # same interval
        assert controller.age_to(150.0) == 2
        assert controller.sketch(IPV4).estimate(16) == 2.0

    def test_age_to_never_rewinds(self):
        controller = AdmissionController(
            AdmissionConfig(age_seconds=60.0)
        )
        controller.sketch(IPV4).add(16, 8.0)
        controller.age_to(150.0)
        assert controller.age_to(30.0) == 0
        assert controller.sketch(IPV4).estimate(16) == 8.0

    def test_long_idle_clears_outright(self):
        controller = AdmissionController(
            AdmissionConfig(age_seconds=1.0)
        )
        controller.age_to(0.0)
        controller.sketch(IPV4).add(16, 1e9)
        assert controller.age_to(100.0) == 100
        assert controller.sketch(IPV4).estimate(16) == 0.0


class TestCodec:
    def build_controller(self):
        controller = AdmissionController(
            AdmissionConfig(promote_weight=4.0, seed=99)
        )
        controller.filter_groups(IPV4, {1600: group(10.0)})  # elephant
        controller.filter_groups(IPV4, {3200: group(1.0, B, 20.0, 15.0)})
        controller.filter_groups(6, {64: group(2.0)})
        controller.age_to(100.0)
        return controller

    def test_image_roundtrip(self):
        controller = self.build_controller()
        image = controller.to_image()
        restored = AdmissionController.from_image(
            decode_admission(encode_admission(image))
        )
        assert restored.config == controller.config
        assert restored.elephants(IPV4) == controller.elephants(IPV4)
        assert (
            list(restored.sketch(IPV4).cells)
            == list(controller.sketch(IPV4).cells)
        )
        assert restored._age_boundary == controller._age_boundary

    def test_saturated_flag_survives(self):
        controller = self.build_controller()
        controller.saturate()
        restored = AdmissionController.from_image(
            decode_admission(encode_admission(controller.to_image()))
        )
        assert restored.saturated

    def test_structural_damage_fails_loudly(self):
        # bit rot in cell *values* is the checkpoint CRC's job; the
        # section codec itself must catch structural damage
        blob = bytearray(encode_admission(self.build_controller().to_image()))
        blob[5] = 0x7F  # garble the version byte
        with pytest.raises(StateCodecError):
            decode_admission(bytes(blob))

    def test_truncation_fails_loudly(self):
        blob = encode_admission(self.build_controller().to_image())
        with pytest.raises(StateCodecError):
            decode_admission(blob[: len(blob) - 3])

    def test_bad_magic_rejected(self):
        with pytest.raises(StateCodecError):
            decode_admission(b"NOPE" + bytes(32))

    def test_merge_images_cellwise(self):
        shard_a = AdmissionController(AdmissionConfig())
        shard_b = AdmissionController(AdmissionConfig())
        shard_a.filter_groups(IPV4, {1600: group(10.0)})
        shard_b.filter_groups(IPV4, {3200: group(1.0)})
        merged = merge_admission_images(
            [shard_a.to_image(), None, shard_b.to_image()]
        )
        assert merged is not None
        restored = AdmissionController.from_image(merged)
        assert restored.elephants(IPV4) == {1600}
        assert restored.sketch(IPV4).estimate(3200) >= 1.0

    def test_merge_of_nothing_is_none(self):
        assert merge_admission_images([None, None]) is None
