"""Conv-engine certification gate: Fig. 4 catch behaviour and verdicts.

The system-level half of the conv-engine certification (the layer-level
engine matrix is ``tests/nn/test_conv_engine.py``).  Per "Evaluation of
Runtime Monitoring for UAV Emergency Landing" (Guerin et al., 2022), the
monitor's catch rate is the certification currency: an engine change
that is "only" off in the last float may still flip a borderline
Eq. (2) verdict, so the gate asserts — seeded, on the real trained tiny
system, across the scenario-campaign presets — that switching the conv
engine from ``blocked`` to ``reference`` changes *zero* monitor
verdicts, decisions, campaign outcomes or Fig. 4 catch statistics.

These are empirical seeded contracts, exactly like the repo's other
bit-for-bit gates: a future change that breaks them (a sloppier
engine, a loosened tolerance) fails here before it reaches a bench.
The structure is deliberately generic: a new engine mode is certified
by setting ``ENGINE`` to it, and the same assertions apply.
"""

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.eval.harness import fig4_experiment, zone_acceptance_experiment
from repro.nn import functional as F
from repro.scenarios import NAV_COMM_LOSS, get_scenario, run_scenario_campaign

#: The mode under certification vs the bit-for-bit baseline engine.
BASELINE = "blocked"
ENGINE = "reference"

OOD_PRESETS = ("sunset_ood", "night_ood", "fog_ood")
CAMPAIGN_PRESETS = ("nav_comm_loss_delivery", "sunset_nav_loss")


def _images(system, count=None):
    images = [s.image for s in system.test_samples]
    return images if count is None else images[:count]


# ----------------------------------------------------------------------
# Monitor statistics: the Bayesian pass feeding Eq. (2)
# ----------------------------------------------------------------------
class TestMonitorStatistics:
    def test_mc_statistics_and_labels_identical(self, tiny_system):
        """Same seed, same frame: the MC pass on ``ENGINE`` must
        reproduce the blocked engine's mean/std and the posterior-mean
        arg-max labels exactly."""
        image = _images(tiny_system)[0]
        dists = {}
        for mode in (BASELINE, ENGINE):
            with F.conv_engine(mode=mode):
                dists[mode] = tiny_system.make_segmenter(
                    rng=7).predict_distribution(image)
        base, alt = dists[BASELINE], dists[ENGINE]
        # The monitor thresholds mu + 3*sigma against tau; certify the
        # statistics themselves.
        assert np.array_equal(alt.mean, base.mean)
        assert np.array_equal(alt.std, base.std)
        assert np.array_equal(base.predicted_labels, alt.predicted_labels)

    def test_deterministic_labels_identical(self, tiny_system):
        """The core function's full-frame labels (argmax over logits)
        must not flip a single pixel under ``ENGINE``."""
        seg = tiny_system.make_segmenter(rng=0)
        for image in _images(tiny_system):
            with F.conv_engine(mode=BASELINE):
                base = seg.predict_labels(image)
            with F.conv_engine(mode=ENGINE):
                alt = seg.predict_labels(image)
            assert np.array_equal(base, alt)


# ----------------------------------------------------------------------
# Episode decisions: zero verdict flips
# ----------------------------------------------------------------------
def _episode_fingerprint(result):
    """Everything a certification reviewer would diff between runs."""
    zone = result.selected_zone
    return (
        result.decision.action,
        result.decision.attempts,
        tuple(v.accepted for v in result.verdicts),
        tuple(round(v.unsafe_fraction, 12) for v in result.verdicts),
        None if zone is None else
        (zone.box.row, zone.box.col, zone.box.height, zone.box.width),
    )


class TestDecisionVerdictGate:
    def test_zero_verdict_flips_on_monitored_episodes(self, tiny_system):
        """Pipeline decisions over the seeded test split, engine
        selected through the EngineConfig plumbing: identical verdict
        streams, decisions and selected zones."""
        runs = {}
        for mode in (BASELINE, ENGINE):
            pipeline = tiny_system.make_pipeline(
                rng=0, engine=EngineConfig(conv_mode=mode))
            runs[mode] = [pipeline.run(im)
                          for im in _images(tiny_system)]
        for base, alt in zip(runs[BASELINE], runs[ENGINE]):
            assert _episode_fingerprint(base) == _episode_fingerprint(alt)
            assert np.array_equal(base.predicted_labels,
                                  alt.predicted_labels)

    def test_episode_scheduler_runs_engine_identically(self,
                                                       tiny_system):
        """The streaming engine accepts the ``ENGINE`` EngineConfig and
        reproduces the blocked engine's decision stream."""
        images = _images(tiny_system, 4)
        streams = {}
        for mode in (BASELINE, ENGINE):
            scheduler = tiny_system.make_scheduler(
                engine=EngineConfig(conv_mode=mode))
            streams[mode] = scheduler.run_frames(images, seed=3)
        for base, alt in zip(streams[BASELINE], streams[ENGINE]):
            assert _episode_fingerprint(base) == _episode_fingerprint(alt)

    @pytest.mark.parametrize("preset", OOD_PRESETS)
    def test_ood_catch_behaviour_unchanged(self, tiny_system, preset):
        """The Fig. 4 catch behaviour on each OOD preset — acceptance,
        aborts, truly-unsafe accept counts — is identical under the
        ``ENGINE`` conv engine (zero flips, not merely 'still safe')."""
        samples = tiny_system.ood_samples(preset)
        stats = {}
        for mode in (BASELINE, ENGINE):
            with F.conv_engine(mode=mode):
                stats[mode] = zone_acceptance_experiment(
                    tiny_system, samples, monitor_enabled=True, rng=0)
        assert stats[BASELINE] == stats[ENGINE]


# ----------------------------------------------------------------------
# Fig. 4 catch-rate gate and campaign verdicts
# ----------------------------------------------------------------------
class TestFig4AndCampaignGate:
    def test_fig4_catch_rates_identical(self, tiny_system):
        """The full Fig. 4 protocol (in-distribution + OOD, model miss
        rate / monitor catch rate / false alarms) run on both engines:
        every statistic must agree exactly — the monitor's catch rate
        is the certification currency and may not move."""
        results = {}
        for mode in (BASELINE, ENGINE):
            with F.conv_engine(mode=mode):
                results[mode] = fig4_experiment(
                    tiny_system, "sunset_ood", max_frames=4)
        assert results[BASELINE] == results[ENGINE]

    @pytest.mark.parametrize("preset", CAMPAIGN_PRESETS)
    def test_campaign_verdicts_identical(self, tiny_system, preset):
        """Seeded mission campaigns on the scenario presets, EL policy
        on each conv engine: outcome, severity and maneuver counts and
        the EL attempt/abort book must not change under ``ENGINE``."""
        spec = get_scenario(preset).with_failure(NAV_COMM_LOSS) \
            .with_camera(tiny_system.config.dataset.image_shape,
                         tiny_system.config.dataset.gsd)
        stats = {}
        for mode in (BASELINE, ENGINE):
            policy = tiny_system.make_pipeline(
                monitor_enabled=True, rng=0,
                engine=EngineConfig(conv_mode=mode)).as_mission_policy()
            stats[mode] = run_scenario_campaign(
                spec, 3, el_policy=policy, seed=11)
        base, alt = stats[BASELINE], stats[ENGINE]
        assert base.num_missions == alt.num_missions
        assert base.severity_counts == alt.severity_counts
        assert base.outcome_counts == alt.outcome_counts
        assert base.maneuver_counts == alt.maneuver_counts
        assert (base.el_attempts, base.el_aborts) == \
            (alt.el_attempts, alt.el_aborts)
