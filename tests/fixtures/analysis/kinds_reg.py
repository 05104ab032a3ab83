"""Fixture kind declaration: declares the ``fab`` family.

The file plays the role of ``repro/net/kinds.py`` — it assigns
``ALL_KINDS`` and ``AGGREGATE_KINDS``, so the constants listed there are
the declared kinds and the dict's values the aggregate markers.  A
docstring may name anything, even "fab.bogus".
"""

KIND_FAB_PING = "fab.ping"
KIND_FAB_PONG = "fab.pong"
KIND_FAB_RETIRED = "fab.retired"  # expect[KIND-literal]

ALL_KINDS = (
    KIND_FAB_PING,
    KIND_FAB_PONG,
)

AGGREGATE_KINDS = {
    KIND_FAB_PING: "fab.ping[]",
}


def route(kind):
    if kind == "fab.ping[]":  # negative: a declared aggregate marker
        return "fab.pong"  # negative: a declared kind
    if kind == "fab.pnog":  # expect[KIND-literal]
        return "fab.pong[]"  # expect[KIND-literal]
    return "other.family"  # negative: not a declared family
