"""Fixture node sink table: plays the role of ``repro/runtime/node.py``.

``fab.lost`` is deliberately missing from the handler table — the
``KIND-sink`` finding lands on its registration line in the registry
fixture, not here.  The module still *names* the constant (on its send
side): the rule reads the table's keys, not every reference.
"""

from kinds_reg import (
    KIND_FAB_ALIEN,
    KIND_FAB_LOST,
    KIND_FAB_MUTE,
    KIND_FAB_PAIR,
    KIND_FAB_PING,
    KIND_FAB_PONG,
)


class FabNode:
    __slots__ = ("_kind_handlers",)

    def __init__(self):
        self._kind_handlers = {
            KIND_FAB_PING: self._on_item,
            KIND_FAB_PONG: self._on_item,
            KIND_FAB_MUTE: self._on_item,
            KIND_FAB_PAIR: self._on_item,
            KIND_FAB_ALIEN: self._on_item,
        }

    def _on_item(self, item):
        return item

    def send_lost(self, send):
        send(KIND_FAB_LOST, None)
