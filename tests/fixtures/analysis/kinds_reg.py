"""Fixture kind registry: declares the ``fab`` family.

The file plays the role of ``repro/net/kinds.py`` — it *defines*
``register_kind`` and makes the top-level built-in registrations, so
registrations here are in the defining file and (when top-level) legal
for aggregate kinds.
"""

KIND_FAB_PING = "fab.ping"
KIND_FAB_PONG = "fab.pong"
KIND_FAB_LOST = "fab.lost"
KIND_FAB_MUTE = "fab.mute"
KIND_FAB_PAIR = "fab.pair"
KIND_FAB_ALIEN = "fab.alien"
KIND_FAB_RETIRED = "fab.retired"  # expect[KIND-literal]


def register_kind(kind, *, aggregate=None, family=None):
    return kind


register_kind(KIND_FAB_PING)  # negative: priced, codec'd and sunk
register_kind(KIND_FAB_PONG)  # expect[KIND-price]
register_kind(KIND_FAB_LOST)  # expect[KIND-sink]
register_kind(KIND_FAB_MUTE)  # expect[KIND-codec]


def _register_after_import():
    register_kind(KIND_FAB_PAIR, aggregate="fab.pair[]")  # expect[KIND-late-aggregate]
