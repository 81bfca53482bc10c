"""Query-lifecycle robustness policies: circuit breakers and their knobs.

The serving layer treats a query as a *lifecycle*, not a call:
``submitted → running → {completed, cancelled, deadline-exceeded, shed,
retried → …, failed}``, with a per-prepared-plan circuit breaker
quarantining handles that keep failing terminally.  This module holds
the pure state machines; the :class:`~repro.serving.server.Server` wires
them to the scheduler, the tenant ledgers, and the metrics registry.

Every decision here is driven by counts and the simulated clock — never
wall time — so the set of lifecycle outcomes for a given seed and
submission sequence is deterministic and replayable (asserted by the
hypothesis sweep in ``tests/test_serving_replay.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import CircuitOpenError

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATE_CODES",
]

#: Breaker states, and their encoding on the ``serving_breaker_state``
#: gauge (max-merge across ranks keeps the most degraded state visible).
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half-open"
BREAKER_OPEN = "open"
BREAKER_STATE_CODES = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


@dataclass(frozen=True)
class BreakerConfig:
    """When a prepared plan's handle gets quarantined, and for how long.

    Attributes:
        failure_threshold: Consecutive *terminal* failures (non-retryable
            errors, or an exhausted server-side retry budget) that trip
            the breaker from closed to open.  Any success resets the run.
        cooldown: Fast-failed submissions the open breaker absorbs before
            half-opening.  The cooldown is counted in submissions — a
            deterministic currency — rather than wall seconds, so breaker
            trajectories replay exactly for a fixed submission sequence.
    """

    failure_threshold: int = 3
    cooldown: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {self.cooldown}")


class CircuitBreaker:
    """Per-prepared-plan failure quarantine.

    Classic three-state breaker, adapted to the deterministic serving
    simulation:

    * **closed** — submissions flow; ``failure_threshold`` consecutive
      terminal failures trip it open (a success resets the count).
    * **open** — submissions fast-fail with
      :class:`~repro.errors.CircuitOpenError`.  After ``cooldown``
      fast-fails the breaker half-opens: the *next* submission becomes
      the probe.
    * **half-open** — exactly one probe is in flight; other submissions
      keep fast-failing.  The probe's outcome decides: success closes
      the breaker, a terminal failure re-opens it.

    Thread-safe; ``on_transition(handle, old_state, new_state)`` fires
    outside any caller-visible invariant violation but inside the
    breaker's own lock (keep callbacks cheap and non-reentrant).
    """

    def __init__(
        self,
        handle: str,
        config: BreakerConfig | None = None,
        on_transition: Callable[[str, str, str], None] | None = None,
    ) -> None:
        self.handle = handle
        self.config = config if config is not None else BreakerConfig()
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._open_rejections = 0
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, new_state: str) -> None:
        old_state, self._state = self._state, new_state
        if self.on_transition is not None and old_state != new_state:
            self.on_transition(self.handle, old_state, new_state)

    # -- submission side -----------------------------------------------------

    def admit(self) -> None:
        """Gate one submission; raises :class:`CircuitOpenError` to fast-fail.

        In the open state each rejection counts toward the cooldown; the
        submission that exhausts it is admitted as the half-open probe.
        """
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return
            if self._state == BREAKER_OPEN:
                self._open_rejections += 1
                if self._open_rejections >= self.config.cooldown:
                    self._transition(BREAKER_HALF_OPEN)
                    self._probe_in_flight = True
                    return
                raise CircuitOpenError(
                    f"circuit breaker for {self.handle!r} is open "
                    f"({self._consecutive_failures} consecutive terminal "
                    f"failures); {self.config.cooldown - self._open_rejections} "
                    f"more rejection(s) until a half-open probe",
                    handle=self.handle,
                    state=BREAKER_OPEN,
                )
            # Half-open: one probe at a time.
            if self._probe_in_flight:
                raise CircuitOpenError(
                    f"circuit breaker for {self.handle!r} is half-open with a "
                    f"probe already in flight",
                    handle=self.handle,
                    state=BREAKER_HALF_OPEN,
                )
            self._probe_in_flight = True

    def abandon(self) -> None:
        """Release a probe slot whose submission never reached the scheduler
        (admission control shed or rejected it downstream of :meth:`admit`)."""
        with self._lock:
            self._probe_in_flight = False

    # -- outcome side --------------------------------------------------------

    def record_success(self) -> None:
        """A query on this handle completed; close and reset the breaker."""
        with self._lock:
            self._consecutive_failures = 0
            self._open_rejections = 0
            self._probe_in_flight = False
            if self._state != BREAKER_CLOSED:
                self._transition(BREAKER_CLOSED)

    def record_failure(self, terminal: bool) -> None:
        """A query on this handle failed.

        Only *terminal* failures count: a retryable fault the server is
        about to retry is not evidence of a poisoned plan.  A
        half-open probe failing terminally re-opens the breaker and
        restarts the cooldown.
        """
        if not terminal:
            return
        with self._lock:
            self._probe_in_flight = False
            self._consecutive_failures += 1
            if self._state == BREAKER_HALF_OPEN:
                self._open_rejections = 0
                self._transition(BREAKER_OPEN)
            elif (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.config.failure_threshold
            ):
                self._open_rejections = 0
                self._transition(BREAKER_OPEN)
