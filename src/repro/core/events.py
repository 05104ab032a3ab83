"""DGC lifecycle trace-event kinds.

Centralised so the harness, figures and tests agree on the vocabulary.
Only low-frequency lifecycle events are traced (per-message tracing at
grid scale would dominate the run); message volumes come from the
bandwidth accountant instead.
"""

#: An activity finished serving and became idle.
ACTIVITY_IDLE = "activity.idle"
#: An activity was removed (reason: "acyclic", "cyclic", "explicit").
ACTIVITY_TERMINATED = "activity.terminated"
#: A clock owner detected the consensus on its final activity clock.
DGC_CONSENSUS = "dgc.consensus"
#: An activity entered the doomed state (detected or propagated).
DGC_DOOMED = "dgc.doomed"
#: An activity's clock was incremented (reason: "idle",
#: "referencer_loss", "referenced_loss").
DGC_CLOCK_INCREMENT = "dgc.clock_increment"
#: An application message reached a terminated activity.
MESSAGE_DEAD_LETTER = "message.dead_letter"

#: Termination reasons.
REASON_ACYCLIC = "acyclic"
REASON_CYCLIC = "cyclic"
REASON_EXPLICIT = "explicit"
