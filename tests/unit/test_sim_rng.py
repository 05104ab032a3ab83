"""Unit tests for deterministic RNG streams."""

import random
from collections import Counter

import pytest

from repro.sim.rng import RngRegistry, ZipfSampler


def test_same_name_returns_same_stream():
    registry = RngRegistry(7)
    assert registry.stream("a") is registry.stream("a")


def test_derive_starts_the_stream_afresh_and_keeps_nothing():
    registry = RngRegistry(7)
    draws = [registry.derive("a").random() for _ in range(3)]
    assert draws == [RngRegistry(7).stream("a").random()] * 3
    assert registry.derive("a") is not registry.derive("a")
    assert registry._streams == {}


def test_streams_are_reproducible_across_registries():
    first = RngRegistry(7).stream("x").random()
    second = RngRegistry(7).stream("x").random()
    assert first == second


def test_different_names_differ():
    registry = RngRegistry(7)
    assert registry.stream("a").random() != registry.stream("b").random()


def test_different_seeds_differ():
    assert (
        RngRegistry(1).stream("x").random()
        != RngRegistry(2).stream("x").random()
    )


def test_new_consumer_does_not_perturb_existing_stream():
    registry_a = RngRegistry(7)
    registry_a.stream("first").random()
    value_a = registry_a.stream("target").random()

    registry_b = RngRegistry(7)
    registry_b.stream("first").random()
    registry_b.stream("unrelated-extra").random()
    value_b = registry_b.stream("target").random()
    assert value_a == value_b


def test_fork_is_deterministic_and_distinct():
    parent = RngRegistry(7)
    child_a = parent.fork("run1")
    child_b = RngRegistry(7).fork("run1")
    assert child_a.stream("x").random() == child_b.stream("x").random()
    assert child_a.root_seed != parent.root_seed


def test_zipf_is_deterministic_for_equal_streams():
    sampler = ZipfSampler(1000, 1.1)
    stream_a = RngRegistry(7).stream("zipf")
    stream_b = RngRegistry(7).stream("zipf")
    draws_a = [sampler.sample(stream_a) for _ in range(500)]
    draws_b = [sampler.sample(stream_b) for _ in range(500)]
    assert draws_a == draws_b


def test_zipf_draws_stay_in_range():
    sampler = ZipfSampler(17, 1.3)
    rng = random.Random(3)
    draws = [sampler.sample(rng) for _ in range(2000)]
    assert min(draws) >= 0
    assert max(draws) < 17


def test_zipf_tail_shape_is_head_heavy():
    # With s=1 over 100 ranks, rank 0 carries ~1/H_100 ~= 19% of the
    # mass and the top 10 ranks a clear majority; the uniform draw puts
    # 1% / 10% there.  Use wide empirical margins: this is a shape test,
    # not a goodness-of-fit test.
    sampler = ZipfSampler(100, 1.0)
    rng = random.Random(11)
    counts = Counter(sampler.sample(rng) for _ in range(20000))
    head = counts[0] / 20000
    top10 = sum(counts[rank] for rank in range(10)) / 20000
    assert 0.15 < head < 0.25
    assert top10 > 0.45
    # The analytic weights agree with the harmonic normalization.
    assert sampler.weight(0) == pytest.approx(
        1.0 / sum(1.0 / k for k in range(1, 101))
    )
    assert sum(sampler.weight(rank) for rank in range(100)) == pytest.approx(1.0)


def test_zipf_s_zero_is_uniform():
    sampler = ZipfSampler(8, 0.0)
    for rank in range(8):
        assert sampler.weight(rank) == pytest.approx(1.0 / 8)
    rng = random.Random(5)
    counts = Counter(sampler.sample(rng) for _ in range(16000))
    for rank in range(8):
        assert counts[rank] / 16000 == pytest.approx(1.0 / 8, abs=0.02)


def test_zipf_rejects_invalid_params():
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0)
    with pytest.raises(ValueError):
        ZipfSampler(10, -0.5)
