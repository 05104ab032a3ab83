"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid configuration was supplied (e.g. TTA too small)."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly."""


class ShardFailure(SimulationError):
    """A shard worker process died without reporting (killed, OOM)."""


class SchedulingInPastError(SimulationError):
    """An event was scheduled strictly before the current simulated time."""


class NetworkError(ReproError):
    """A message could not be routed or delivered."""


class UnknownDestinationError(NetworkError):
    """A message was addressed to a node unknown to the fabric."""


class RuntimeModelError(ReproError):
    """The active-object runtime was used incorrectly."""


class ActivityTerminatedError(RuntimeModelError):
    """An operation was attempted on a terminated activity."""


class NoSuchActivityError(RuntimeModelError):
    """An activity id does not resolve to a live activity."""


class RegistryError(RuntimeModelError):
    """A registry lookup or bind failed."""


class ProtocolError(ReproError):
    """The DGC protocol state machine was driven into an invalid state."""
