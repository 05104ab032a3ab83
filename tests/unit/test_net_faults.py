"""Unit tests for the fault plan (delay rules and partitions)."""

from repro.net.faults import FaultPlan


def extra(plan, now, kind="app.request", src="a", dst="b", item=None):
    """The extra delay ``plan`` adds to one message at ``now``."""
    return plan.extra_delay(src, dst, kind, item, now)


def test_no_rules_no_delay():
    plan = FaultPlan()
    assert extra(plan, 0.0) == 0.0


def test_delay_filters_by_source_dest_kind():
    plan = FaultPlan()
    plan.add_delay(1.0, source="a", dest="b", kind="app.request")
    assert extra(plan, 0.0) == 1.0
    assert extra(plan, 0.0, src="x") == 0.0
    assert extra(plan, 0.0, dst="x") == 0.0
    assert extra(plan, 0.0, kind="dgc.message") == 0.0


def test_delay_window():
    plan = FaultPlan()
    plan.add_delay(2.0, start=10.0, end=20.0)
    assert extra(plan, 5.0) == 0.0
    assert extra(plan, 10.0) == 2.0
    assert extra(plan, 19.99) == 2.0
    assert extra(plan, 20.0) == 0.0


def test_delays_accumulate():
    plan = FaultPlan()
    plan.add_delay(1.0)
    plan.add_delay(0.5, kind="app.request")
    assert extra(plan, 0.0) == 1.5


def test_custom_predicate():
    plan = FaultPlan()
    plan.add_delay(3.0, predicate=lambda item: item == "slow")
    assert extra(plan, 0.0, item="slow") == 3.0
    assert extra(plan, 0.0, item="fast") == 0.0


def test_predicate_is_anded_with_filters_and_window():
    plan = FaultPlan()
    seen = []

    def predicate(item):
        seen.append(item)
        return True

    plan.add_delay(
        1.0, kind="dgc.message", start=5.0, end=6.0, predicate=predicate
    )
    assert extra(plan, 5.0, kind="app.request", item="a") == 0.0
    assert extra(plan, 0.0, kind="dgc.message", item="b") == 0.0
    assert extra(plan, 5.0, kind="dgc.message", item="c") == 1.0
    # The predicate only runs once the window and filters have matched.
    assert seen == ["c"]


def test_may_delay_matches_only_the_filtered_stream():
    plan = FaultPlan()
    plan.add_delay(1.0, source="a", dest="b", kind="dgc.message")
    assert plan.may_delay("a", "b", "dgc.message")
    assert not plan.may_delay("a", "b", "app.request")
    assert not plan.may_delay("a", "b", "dgc.response")
    assert not plan.may_delay("x", "b", "dgc.message")
    assert not plan.may_delay("a", "x", "dgc.message")


def test_may_delay_ignores_time_windows():
    # A currently-dormant rule still forces per-message evaluation —
    # that is what honours the window exactly once it opens.
    plan = FaultPlan()
    plan.add_delay(1.0, kind="dgc.message", start=100.0, end=200.0)
    assert plan.may_delay("a", "b", "dgc.message")
    assert not plan.may_delay("a", "b", "app.request")


def test_may_delay_is_conservative_for_opaque_predicates():
    plan = FaultPlan()
    plan.add_delay(1.0, predicate=lambda item: item == "never")
    assert plan.may_delay("a", "b", "dgc.message")
    assert plan.may_delay("x", "y", "app.reply")
    # Static filters still prune even with a predicate attached.
    plan2 = FaultPlan()
    plan2.add_delay(1.0, kind="dgc.message",
                    predicate=lambda item: item == "never")
    assert plan2.may_delay("a", "b", "dgc.message")
    assert not plan2.may_delay("a", "b", "app.request")


def test_kind_filtered_rule_keeps_other_kinds_on_the_batched_path():
    """A kind-filtered delay rule sends only the matchable stream down
    the per-message lane; unmatched kinds on the same channel keep
    riding the pulse."""
    from repro.net.kinds import ALL_KINDS
    from repro.net.network import Network
    from repro.net.topology import uniform_topology
    from repro.sim.kernel import SimKernel

    plan = FaultPlan()
    kernel = SimKernel()
    network = Network(
        kernel, uniform_topology(2, rtt_s=0.01), fault_plan=plan
    )
    network.pulse_batching = True
    delivered = []
    network.register_node(
        "site-0", {kind: lambda item, payload: None for kind in ALL_KINDS}
    )
    network.register_node("site-1", {
        kind: lambda item, payload, _kind=kind: delivered.append(
            (_kind, kernel.now)
        )
        for kind in ALL_KINDS
    })
    plan.add_delay(0.5, kind="dgc.message")
    network.send_typed("site-0", "site-1", "app.request", 10, "r1", None)
    network.send_typed("site-0", "site-1", "dgc.message", 10, "m1", None)
    kernel.run()
    # The matched kind took the per-message lane and the extra delay
    # with it; the unmatched kind was staged in a pulse, not slowed.
    assert delivered == [("app.request", 0.005), ("dgc.message", 0.505)]
    assert network.pulse_event_count == 1


def test_partition_is_bidirectional_and_healable():
    plan = FaultPlan()
    plan.partition("a", "b")
    assert plan.is_partitioned("a", "b")
    assert plan.is_partitioned("b", "a")
    assert not plan.is_partitioned("a", "c")
    plan.heal("b", "a")
    assert not plan.is_partitioned("a", "b")
