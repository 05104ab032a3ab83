"""Seeded HOT-typing-check violations: class checks against typing aliases."""

import collections.abc
import typing
import typing as t
from collections.abc import Iterable
from typing import Generator, Mapping as Map, Sequence


def dispatch(result, kind):
    if isinstance(result, Generator):  # expect[HOT-typing-check]
        return "step"
    if isinstance(result, typing.Iterator):  # expect[HOT-typing-check]
        return "iterate"
    if isinstance(result, (int, Map)):  # expect[HOT-typing-check]
        return "map"
    if issubclass(kind, t.Callable):  # expect[HOT-typing-check]
        return "call"
    if isinstance(result, collections.abc.Generator):  # negative: the ABC itself
        return "step"
    if isinstance(result, Iterable):  # negative: from collections.abc
        return "iterate"
    return isinstance(result, (str, bytes))  # negative: concrete types


def annotated(items: Sequence[int]) -> typing.List[int]:  # negative: annotations
    return list(items)
