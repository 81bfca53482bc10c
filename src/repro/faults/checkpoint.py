"""Checkpointing materialized intermediates at materialization points.

The plan compiler cuts DAGs into pipelines at materialization points
(§3.2/§3.4); those cuts are exactly the recovery boundaries of this
subsystem.  While an MPI job runs under fault injection, every
``MaterializeRowVector`` in the *worker top scope* deposits its finished
collection into a driver-owned :class:`CheckpointStore`.  When a rank
crash aborts the job and the driver re-executes the stage, materialization
points whose output every rank had already finished serve the checkpoint
instead of recomputing their upstream pipeline — the lineage-based
"recompute only what was lost" idea, at pipeline granularity.

Two rules keep this sound in an SPMD world:

* **All-ranks-complete.**  A checkpoint is usable only when *every* rank
  of the job deposited it.  Serving a partial set would let some ranks
  skip the collectives inside the checkpointed subtree while others
  re-issue them — a guaranteed protocol mismatch.
* **Seal-before-attempt.**  The usable set is snapshotted once per
  attempt (:meth:`CheckpointStore.seal`).  Deposits from the running
  attempt keep accumulating for the *next* retry but never change
  verdicts mid-flight, so all ranks of one attempt make identical
  skip/recompute decisions.

Checkpoints apply only in the worker's top scope (exactly the executor's
parameter binding active): nested ``NestedMap`` invocations run once per
input tuple and have no stable cross-attempt identity.  Node identity is
the plan-node object itself, which is shared across attempts.
"""

from __future__ import annotations

from repro.types.collections import RowVector

__all__ = ["CheckpointStore"]


class CheckpointStore:
    """Materialization-point checkpoints for one pipeline stage.

    Created by ``MpiExecutor`` once per wave (shared by all recovery
    attempts of that wave) and handed to every worker context.
    """

    def __init__(self, n_ranks: int, slot_id: int) -> None:
        self.n_ranks = n_ranks
        #: The executor's parameter slot; deposits/lookups happen only
        #: while exactly this binding is active (worker top scope).
        self.slot_id = slot_id
        self._live: dict[int, dict[int, RowVector]] = {}
        self._sealed: dict[int, dict[int, RowVector]] = {}

    def resize(self, n_ranks: int) -> None:
        """Adopt a degraded cluster width; prior checkpoints are discarded.

        Re-sharding onto survivors changes every rank's share, so
        full-width checkpoints no longer describe any rank's stage output.
        """
        self.n_ranks = n_ranks
        self._live.clear()
        self._sealed = {}

    def seal(self) -> int:
        """Snapshot the usable (all-ranks-complete) set for the next attempt.

        Returns the number of usable materialization points.
        """
        self._sealed = {
            node: dict(ranks)
            for node, ranks in self._live.items()
            if len(ranks) == self.n_ranks
        }
        return len(self._sealed)

    def deposit(self, node_id: int, rank: int, vector: RowVector) -> None:
        self._live.setdefault(node_id, {})[rank] = vector

    def lookup(self, node_id: int, rank: int) -> RowVector | None:
        """The sealed checkpoint for ``(node, rank)``, or None to recompute."""
        sealed = self._sealed.get(node_id)
        return None if sealed is None else sealed.get(rank)
