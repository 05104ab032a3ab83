"""Fixture shard codec: plays the role of ``repro/net/wire.py``.

Defines the two codec function sets the symmetric-coverage check keys
on (the encoder's ``value`` method, ``_decode_value_v2``) plus the
``KIND_PAYLOAD_TYPES`` manifest.
"""

from kinds_reg import (
    KIND_FAB_ALIEN,
    KIND_FAB_LOST,
    KIND_FAB_PAIR,
    KIND_FAB_PING,
    KIND_FAB_PONG,
    KIND_FAB_RETIRED,
)


class FabPing:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class FabPong:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class FabLost:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class FabPair:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class FabAlien:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class FabAsym:
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class _V2Encoder:
    __slots__ = ("out",)

    def __init__(self):
        self.out = []

    def value(self, value):
        cls = value.__class__
        if cls is FabPing:
            self.out.append(1)
        elif cls is FabPong:
            self.out.append(2)
        elif cls is FabLost:
            self.out.append(3)
        elif cls is FabPair:
            self.out.append(4)
        elif cls is FabAlien:
            self.out.append(5)
        elif cls is FabAsym:  # expect[KIND-codec]
            self.out.append(6)
        self.out.append(value.a)


def _decode_value_v2(tag, body):
    if tag == 1:
        return FabPing(body)
    if tag == 2:
        return FabPong(body)
    if tag == 3:
        return FabLost(body)
    if tag == 4:
        return FabPair(body)
    return FabAlien(body)


KIND_PAYLOAD_TYPES = {
    KIND_FAB_PING: (FabPing,),
    KIND_FAB_PONG: (FabPong, FabOrphan),  # expect[KIND-codec]
    KIND_FAB_LOST: (FabLost,),
    KIND_FAB_PAIR: (FabPair,),
    KIND_FAB_ALIEN: (FabAlien,),
    KIND_FAB_RETIRED: (FabPing,),  # expect[KIND-codec]
}
