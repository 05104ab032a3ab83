"""Fixture late registration: an aggregate kind declared outside the
registry module — the dispatch-shape snapshot in network/node will
never include it."""

from kinds_reg import KIND_FAB_ALIEN, register_kind

register_kind(KIND_FAB_ALIEN, aggregate="fab.alien[]")  # expect[KIND-late-aggregate]
