"""Adversarial scenario pack: downsized end-to-end runs per family.

These are the EXPERIMENTS.md pass criteria at CI scale — each family
runs one downsized scenario and asserts the same property the full
benchmark row claims:

* flood — lossy admission keeps benign-range pollution at zero while
  the ungated run pollutes, and the gate drops the bulk of the flood;
* policing — clipped elephants keep their ingress classification
  through the clip window;
* flap — the decay function is unstable at period = ``t`` and stable
  again at long periods (~16t).

The cheap ground-truth/bookkeeping contracts run without any IPD
replay; the per-family runs share module-scoped fixtures so the file
stays CI-sized.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    clip_survival,
    flap_survival,
    peak_pollution,
    state_blowup,
)
from repro.core.admission import AdmissionConfig
from repro.core.params import IPDParams
from repro.workloads import (
    ADVERSARIAL_SCENARIOS,
    adversarial_scenario,
)

#: factor-0.01 pairing for downsized flow volumes (DESIGN.md §5)
PARAMS = IPDParams(
    n_cidr_factor_v4=0.01, n_cidr_factor_v6=0.01, drop_threshold=0.25
)


def flood_overlay(attacked, baseline):
    """The attacked stream minus its benign sub-stream, order-preserving.

    The flood overlay draws from its own RNG, so the benign flows of the
    attacked run are byte-identical (and identically ordered) to the
    baseline twin's; everything the two-pointer walk cannot match is the
    flood.  Asserts the identity as a side effect.
    """
    overlay = []
    index = 0
    for flow in attacked:
        if index < len(baseline) and flow == baseline[index]:
            index += 1
        else:
            overlay.append(flow)
    assert index == len(baseline), "benign sub-stream diverged under attack"
    return overlay


class TestRegistry:
    def test_known_names(self):
        assert ADVERSARIAL_SCENARIOS == (
            "flap-storm", "flood-subnet", "flood-uniform", "policing-clip"
        )

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="flood-uniform"):
            adversarial_scenario("ddos")

    @pytest.mark.parametrize("name", ADVERSARIAL_SCENARIOS)
    def test_every_scenario_builds(self, name):
        scenario = adversarial_scenario(
            name, duration_hours=0.5, flows_per_bucket_peak=200, params=PARAMS
        )
        truth = scenario.ground_truth
        assert truth.family in {"flood", "policing", "flap"}
        assert truth.benign_prefixes
        lo, hi = truth.attack_window
        duration = scenario.traffic_config.duration_seconds
        assert scenario.traffic_config.start_time <= lo < hi
        assert hi <= scenario.traffic_config.start_time + duration


class TestGroundTruth:
    def test_flood_truth_matches_generated_stream(self):
        scenario = adversarial_scenario(
            "flood-uniform", duration_hours=0.5,
            flows_per_bucket_peak=200, params=PARAMS,
        )
        truth = scenario.ground_truth
        attacked = list(scenario.generator().flows())
        baseline = list(scenario.baseline().generator().flows())
        flood = flood_overlay(attacked, baseline)
        assert len(flood) == truth.notes["total_flood_flows"]
        lo, hi = truth.attack_window
        assert all(lo <= f.timestamp < hi for f in flood)
        assert set(f.ingress for f in flood) <= set(truth.flood_ingresses)
        assert 0 < truth.expected_sources <= len(flood)

    def test_subnet_flood_stays_in_subnet(self):
        scenario = adversarial_scenario(
            "flood-subnet", duration_hours=0.5,
            flows_per_bucket_peak=200, params=PARAMS,
        )
        (subnet,) = scenario.ground_truth.attacked_prefixes
        flood = flood_overlay(
            list(scenario.generator().flows()),
            list(scenario.baseline().generator().flows()),
        )
        assert flood
        assert all(subnet.contains_ip(f.src_ip) for f in flood)

    def test_scenarios_are_reproducible(self):
        scenario = adversarial_scenario(
            "policing-clip", duration_hours=0.5,
            flows_per_bucket_peak=200, params=PARAMS,
        )
        assert (
            list(scenario.generator().flows())
            == list(scenario.generator().flows())
        )

    def test_policing_truth_names_real_clips(self):
        scenario = adversarial_scenario(
            "policing-clip", duration_hours=0.5,
            flows_per_bucket_peak=200, params=PARAMS,
        )
        truth = scenario.ground_truth
        assert truth.clipped
        generator = scenario.generator()
        list(generator.flows())
        clipped_prefixes = {entry[1] for entry in generator.clip_log}
        assert clipped_prefixes == {str(e.prefix) for e in truth.clipped}

    def test_flap_truth_periods_bracket_t(self):
        scenario = adversarial_scenario(
            "flap-storm", duration_hours=0.5,
            flows_per_bucket_peak=200, params=PARAMS,
        )
        periods = sorted(e.period_seconds for e in scenario.ground_truth.flaps)
        assert min(periods) < PARAMS.t < max(periods)
        assert PARAMS.t in periods


@pytest.fixture(scope="module")
def flood_runs():
    scenario = adversarial_scenario(
        "flood-uniform", duration_hours=0.75,
        flows_per_bucket_peak=600, params=PARAMS,
    )
    truth = scenario.ground_truth
    lossy = AdmissionConfig.for_cardinality(truth.expected_sources)
    __, attacked = scenario.run(snapshot_seconds=300.0, keep_flows=False)
    __, gated = scenario.run(
        snapshot_seconds=300.0, keep_flows=False, admission=lossy
    )
    __, baseline = scenario.baseline().run(
        snapshot_seconds=300.0, keep_flows=False
    )
    return truth, attacked, gated, baseline


class TestFloodCriterion:
    def test_ungated_flood_pollutes(self, flood_runs):
        truth, attacked, __, __ = flood_runs
        assert peak_pollution(attacked, truth).polluted > 0

    def test_lossy_admission_blocks_pollution(self, flood_runs):
        truth, __, gated, __ = flood_runs
        assert peak_pollution(gated, truth).polluted == 0

    def test_lossy_admission_drops_the_flood(self, flood_runs):
        truth, __, gated, __ = flood_runs
        dropped = sum(report.admission_dropped for report in gated.sweeps)
        assert dropped >= 0.5 * truth.notes["total_flood_flows"]

    def test_gated_state_stays_at_or_below_ungated(self, flood_runs):
        __, attacked, gated, baseline = flood_runs
        assert (
            state_blowup(baseline, gated).factor
            <= state_blowup(baseline, attacked).factor
        )


class TestPolicingCriterion:
    def test_clipped_elephants_survive(self):
        # two targets: the third-heaviest AS is too thin at this volume
        # to classify reliably even unclipped (the bench runs three at
        # 1.5x the flow budget)
        scenario = adversarial_scenario(
            "policing-clip", duration_hours=1.0,
            flows_per_bucket_peak=800, targets=2, params=PARAMS,
        )
        __, result = scenario.run(snapshot_seconds=300.0, keep_flows=False)
        survivals = clip_survival(result, scenario.ground_truth)
        assert survivals
        assert all(s.survived for s in survivals), [
            (s.prefix, s.classified_share, s.ingress_changes)
            for s in survivals
        ]


class TestFlapCriterion:
    def test_unstable_at_t_stable_at_long_periods(self):
        # default period set: same period-to-AS assignment as the bench
        scenario = adversarial_scenario(
            "flap-storm", duration_hours=2.0,
            flows_per_bucket_peak=800, params=PARAMS,
        )
        __, result = scenario.run(snapshot_seconds=300.0, keep_flows=False)
        curve = flap_survival(result, scenario.ground_truth)
        (at_t,) = [p for p in curve if p.period_seconds == 60.0]
        long_points = [p for p in curve if p.period_seconds >= 960.0]
        assert at_t.classified_share <= 0.25
        assert any(point.stable(0.6) for point in long_points)
        assert max(
            point.classified_share for point in long_points
        ) > at_t.classified_share
