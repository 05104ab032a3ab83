"""DGC messages and responses (paper Sec. 3.2).

Message (referencer -> referenced, every TTB):

* ``sender`` — the referencer's ID ("used to detect new referencers and to
  know which DGC response's final activity clock the consensus boolean
  refers to"),
* ``clock`` — the sender's view of the final activity clock,
* ``consensus`` — acceptance of the candidate received in the previous
  DGC response.

Response (referenced -> referencer, on the same connection):

* ``clock`` — the final-activity-clock consensus candidate,
* ``has_parent`` — whether the responder can serve as a parent in the
  reverse spanning tree (it has one itself, or it is the originator),
* ``consensus_reached`` — the Sec. 4.3 optimisation: the responder has
  detected (or learnt of) the consensus, so the whole cycle can collect
  at once.

``sender_ref`` rides along purely as the *response path*: the paper's
responses travel back over the TCP connection the message arrived on, so
no referencer connectivity is required; our simulated equivalent needs
the (id, node) pair to address the response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.clock import ActivityClock
from repro.runtime.ids import ActivityId
from repro.runtime.proxy import RemoteRef


@dataclass(frozen=True, slots=True)
class DgcMessage:
    """Heartbeat from a referencer to a referenced activity.

    ``sender_ttb`` is the Sec. 7.1 extension (heterogeneous/dynamic
    parameters): the sender declares its current beat period so the
    receiver can stretch this referencer's expiry deadline accordingly.
    A value of 0 means "use your own TTA unchanged" (paper baseline).
    """

    sender: ActivityId
    clock: ActivityClock
    consensus: bool
    sender_ref: RemoteRef
    sender_ttb: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "+" if self.consensus else "-"
        return f"DgcMessage({self.sender} clock={self.clock} consensus{flag})"


@dataclass(frozen=True, slots=True)
class DgcResponse:
    """Reply to a :class:`DgcMessage`, flowing referenced -> referencer.

    ``depth`` is the Sec. 7.2 extension (breadth-first spanning tree):
    the responder's distance to the consensus originator (0 for the
    owner).  ``None`` when unknown or when the extension is disabled;
    referencers electing parents can prefer shallow candidates, reducing
    the tree height ``h`` that bounds detection time.
    """

    responder: ActivityId
    clock: ActivityClock
    has_parent: bool
    consensus_reached: bool = False
    depth: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parent = "P" if self.has_parent else "p"
        done = " REACHED" if self.consensus_reached else ""
        return f"DgcResponse({self.responder} clock={self.clock} {parent}{done})"
