"""The runtime sanitizer: MOD050–MOD053 checks on the simulated substrate.

The static analyzer proves what it can from the plan DAG; this module is
the second verification layer, watching the *execution* itself.  Under
``RunOptions(sanitize=True)`` a :class:`Sanitizer` rides on the
execution context and hooks the simulated MPI substrate:

* **MOD050 — RMA write-set tracker.**  Every one-sided put is recorded as
  ``(epoch, target rank, offset range)`` with the operator that issued it.
  Overlapping writes from different ranks within one epoch, and puts
  outside a window's capacity or element type, raise a
  :class:`SanitizerError` carrying a rich
  :class:`~repro.analysis.diagnostics.Diagnostic` — naming both offending
  operators — instead of the substrate's bare ``SimulationError``.

* **MOD051 — collective-schedule recorder.**  Each rank's sequence of
  collective calls is recorded; a tag mismatch at one call index, or a
  rank finishing while a peer has already issued a call it will never
  match, is reported as the would-be deadlock it is, naming the first
  diverging rank and operator.

* **MOD052 — window-lifetime checker.**  Puts never completed by a
  closing fence, reads of remotely-written rows before the epoch's fence,
  and any access to a window after its job closed it.

* **MOD053 — determinism sanitizer.**  Put payloads are digested per
  window; ``execute`` replays the plan under an identical fresh context
  and diffs the write sets at every exchange boundary.  A divergence on a
  window fed only by ``deterministic=True`` operators means MOD030/031
  are trusting a mislabeled operator; windows fed by a *declared*
  non-deterministic operator are exempt (that case is the MOD03x
  warnings' territory).

Operator provenance comes from the data-path instrumentation
(:func:`repro.core.operator._observe_data_path`): each thread keeps a
stack of the operators whose generators are currently executing, so a
substrate hook can name the innermost active operator.

Findings land in a :class:`SanitizerReport` on the
:class:`~repro.core.executor.ExecutionReport` (and in EXPLAIN ANALYZE);
violations of the raising checks surface as :class:`SanitizerError`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.diagnostics import RULES, Diagnostic
from repro.core.plan import walk
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.operator import Operator
    from repro.mpi.window import Window
    from repro.types.collections import RowVector

__all__ = ["Sanitizer", "SanitizerJob", "SanitizerError", "SanitizerReport"]


class SanitizerError(SimulationError):
    """A sanitizer check failed; carries the structured finding."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.format())
        self.diagnostic = diagnostic


@dataclass
class SanitizerReport:
    """What one sanitized execution checked, and what it found."""

    puts_checked: int = 0
    collectives_checked: int = 0
    windows_tracked: int = 0
    epochs_closed: int = 0
    #: True when the determinism replay (MOD053) ran.
    replayed: bool = False
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def render(self) -> str:
        header = (
            f"sanitizer: {self.puts_checked} puts, "
            f"{self.collectives_checked} collectives, "
            f"{self.windows_tracked} windows, "
            f"{self.epochs_closed} epochs checked"
        )
        if self.replayed:
            header += "; determinism replay diffed"
        if self.clean:
            return header + "; clean"
        lines = [header + f"; {len(self.diagnostics)} finding(s):"]
        lines.extend("  " + d.format() for d in self.diagnostics)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "puts_checked": self.puts_checked,
            "collectives_checked": self.collectives_checked,
            "windows_tracked": self.windows_tracked,
            "epochs_closed": self.epochs_closed,
            "replayed": self.replayed,
            "clean": self.clean,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def _provenance(op: "Operator | None") -> str:
    return op.label() if op is not None else "<outside any operator>"


def _diagnostic(rule_id: str, op: "Operator | None", message: str) -> Diagnostic:
    rule = RULES[rule_id]
    return Diagnostic(
        rule=rule,
        severity=rule.severity,
        message=message,
        path=f"runtime/{_provenance(op)}",
        operator=type(op).__name__ if op is not None else "<substrate>",
    )


def _digest(data: "RowVector") -> int:
    """Within-process content fingerprint of one put's payload."""
    parts = []
    for col in data.columns:
        col = np.asarray(col)
        if col.dtype == object:
            parts.append(hash(tuple(col.tolist())))
        else:
            parts.append(hash(col.tobytes()))
    return hash(tuple(parts))


def _feeds_nondeterminism(op: "Operator | None") -> bool:
    """Whether any operator in ``op``'s upstream cone declares itself
    non-deterministic — those windows are MOD030/031's problem, not
    MOD053's."""
    if op is None:
        return False
    return any(not node.deterministic for node in walk(op))


class _WindowState:
    """Sanitizer-side lifetime and write-set state of one RMA window."""

    __slots__ = (
        "key",
        "owner_rank",
        "capacity",
        "creator",
        "nondet_feed",
        "epoch",
        "epoch_writes",
        "unfenced_puts",
        "closed",
    )

    def __init__(
        self,
        key: tuple,
        owner_rank: int,
        capacity: int,
        creator: "Operator | None",
        nondet_feed: bool,
    ) -> None:
        self.key = key
        self.owner_rank = owner_rank
        self.capacity = capacity
        self.creator = creator
        self.nondet_feed = nondet_feed
        self.epoch = 0
        #: ``(start, stop, source_rank, op_label)`` intervals this epoch.
        self.epoch_writes: list[tuple[int, int, int, str]] = []
        self.unfenced_puts = 0
        self.closed = False


class Sanitizer:
    """One sanitized execution's recorder, shared by driver and all jobs.

    Unlocked: one rank of a job runs at a time (the substrate's baton) and
    jobs are created sequentially on the driver (which is what makes window
    keys — and therefore the MOD053 replay diff — deterministic).  Only
    the provenance stack is thread-local: a rank's thread carries its
    stack of active operator generators across hand-offs.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._job_seq = 0
        self.puts_checked = 0
        self.collectives_checked = 0
        self.windows_tracked = 0
        self.epochs_closed = 0
        #: window key -> sorted-comparable put records
        #: ``(epoch, offset, stop, source_rank, digest)``.
        self.write_log: dict[tuple, list[tuple]] = {}
        #: window key -> (creator label, creator type, nondet_feed).
        self.window_meta: dict[tuple, tuple[str, str, bool]] = {}

    # -- operator provenance ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_op(self) -> "Operator | None":
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def track(self, op: "Operator", iterator):
        """Wrap one data-path activation so substrate hooks can name ``op``.

        The stack manipulation runs on whichever thread pulls the
        generator, so the innermost *currently executing* operator of each
        rank thread is always on top of that thread's stack.
        """
        stack = self._stack()
        while True:
            stack.append(op)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                stack.pop()
            yield item

    # -- job lifecycle -------------------------------------------------------

    def job(self, n_ranks: int) -> "SanitizerJob":
        """Per-MPI-job recorder; one per cluster dispatch attempt."""
        seq = self._job_seq
        self._job_seq += 1
        return SanitizerJob(self, seq, n_ranks)

    # -- determinism log (MOD053) --------------------------------------------

    def _record_put(
        self,
        key: tuple,
        epoch: int,
        offset: int,
        stop: int,
        source_rank: int,
        digest: int,
    ) -> None:
        self.write_log.setdefault(key, []).append(
            (epoch, offset, stop, source_rank, digest)
        )

    def report(self, replay: "Sanitizer | None" = None) -> SanitizerReport:
        """Assemble the report, diffing against ``replay`` when given."""
        diagnostics: list[Diagnostic] = []
        if replay is not None:
            diagnostics.extend(diff_write_logs(self, replay))
        return SanitizerReport(
            puts_checked=self.puts_checked,
            collectives_checked=self.collectives_checked,
            windows_tracked=self.windows_tracked,
            epochs_closed=self.epochs_closed,
            replayed=replay is not None,
            diagnostics=diagnostics,
        )


def diff_write_logs(baseline: Sanitizer, replay: Sanitizer) -> list[Diagnostic]:
    """MOD053: windows whose put payloads differ between run and replay."""
    diagnostics: list[Diagnostic] = []
    for key in sorted(set(baseline.write_log) | set(replay.write_log)):
        meta = baseline.window_meta.get(key) or replay.window_meta.get(key)
        label, op_type, nondet_feed = meta if meta else ("<unknown>", "<unknown>", False)
        if nondet_feed:
            # A declared non-deterministic feed: MOD030/031 already warn.
            continue
        first = sorted(baseline.write_log.get(key, ()))
        second = sorted(replay.write_log.get(key, ()))
        if first == second:
            continue
        job_seq, owner_rank, _nth = key
        divergent = next(
            (a for a, b in zip(first, second) if a != b),
            first[len(second)] if len(first) > len(second)
            else second[len(first)] if len(second) > len(first) else None,
        )
        detail = ""
        if divergent is not None:
            epoch, offset, stop, source_rank, _digest_ = divergent
            detail = (
                f"; first divergence at epoch {epoch}, rows [{offset}, {stop}) "
                f"from rank {source_rank}"
            )
        diagnostics.append(
            Diagnostic(
                rule=RULES["MOD053"],
                severity=RULES["MOD053"].severity,
                message=(
                    f"replaying the plan shipped different bytes through the "
                    f"window created by {label} (job {job_seq}, owner rank "
                    f"{owner_rank}): {len(first)} vs {len(second)} recorded "
                    f"puts{detail}; an operator feeding this exchange is "
                    f"non-deterministic despite declaring deterministic=True"
                ),
                path=f"runtime/{label}",
                operator=op_type,
            )
        )
    return diagnostics


class SanitizerJob:
    """Cross-rank sanitizer state of one MPI job (one ``cluster.run``).

    Installed as ``comm.sanitizer`` on every rank of the job; only the
    rank holding the job's baton calls in.
    """

    def __init__(self, parent: Sanitizer, seq: int, n_ranks: int) -> None:
        self.parent = parent
        self.seq = seq
        self.n_ranks = n_ranks
        #: Per-rank collective schedule: list of (tag, operator label).
        self._schedule: list[list[tuple[str, str]]] = [[] for _ in range(n_ranks)]
        self._finished: set[int] = set()
        #: id(window) -> _WindowState for windows this job registered.
        self._windows: dict[int, _WindowState] = {}
        #: Per owner rank, how many windows it registered (deterministic
        #: window keys across replays).
        self._win_counter = [0] * n_ranks

    def _raise(self, rule_id: str, op: "Operator | None", message: str) -> None:
        if op is not None and rule_id in op.lint_suppressions:
            return
        raise SanitizerError(_diagnostic(rule_id, op, message))

    # -- window registration & lifetime (MOD050/052/053) ---------------------

    def on_win_create(self, window: "Window", rank: int) -> None:
        op = self.parent.current_op()
        nth = self._win_counter[rank]
        self._win_counter[rank] = nth + 1
        key = (self.seq, rank, nth)
        state = _WindowState(
            key=key,
            owner_rank=rank,
            capacity=window.capacity,
            creator=op,
            nondet_feed=_feeds_nondeterminism(op),
        )
        self._windows[id(window)] = state
        self.parent.windows_tracked += 1
        self.parent.window_meta.setdefault(
            key,
            (
                _provenance(op),
                type(op).__name__ if op is not None else "<substrate>",
                state.nondet_feed,
            ),
        )
        window.sanitizer = self

    def on_put(
        self, window: "Window", offset: int, data: "RowVector", source_rank: int
    ) -> None:
        state = self._windows.get(id(window))
        if state is None:
            return
        op = self.parent.current_op()
        stop = offset + len(data)
        self.parent.puts_checked += 1
        if state.closed:
            self._raise(
                "MOD052", op,
                f"{_provenance(op)} issued a one-sided put of rows "
                f"[{offset}, {stop}) into the window on rank "
                f"{state.owner_rank} after its job closed the window "
                f"(use-after-close)",
            )
        if data.element_type != window.element_type:
            self._raise(
                "MOD050", op,
                f"{_provenance(op)} on rank {source_rank} put "
                f"{data.element_type!r} tuples into the window on rank "
                f"{state.owner_rank} registered for "
                f"{window.element_type!r} (epoch {state.epoch})",
            )
        if offset < 0 or stop > state.capacity:
            self._raise(
                "MOD050", op,
                f"{_provenance(op)} on rank {source_rank} put rows "
                f"[{offset}, {stop}) outside the window of capacity "
                f"{state.capacity} on rank {state.owner_rank} "
                f"(epoch {state.epoch}); the histogram ladder promised "
                f"a region it does not have",
            )
        for start0, stop0, src0, label0 in state.epoch_writes:
            if src0 != source_rank and offset < stop0 and start0 < stop:
                self._raise(
                    "MOD050", op,
                    f"RMA write-set race in epoch {state.epoch}: "
                    f"{label0} on rank {src0} and {_provenance(op)} on "
                    f"rank {source_rank} both wrote rows "
                    f"[{max(offset, start0)}, {min(stop, stop0)}) of the "
                    f"window on rank {state.owner_rank}; the exclusive "
                    f"write regions the exchange derived from its "
                    f"histograms overlap",
                )
        state.epoch_writes.append((offset, stop, source_rank, _provenance(op)))
        state.unfenced_puts += 1
        self.parent._record_put(
            state.key, state.epoch, offset, stop, source_rank, _digest(data)
        )

    def on_read(self, window: "Window", start: int, stop: int) -> None:
        state = self._windows.get(id(window))
        if state is None:
            return
        op = self.parent.current_op()
        if state.closed:
            self._raise(
                "MOD052", op,
                f"{_provenance(op)} read rows [{start}, {stop}) of the "
                f"window on rank {state.owner_rank} after its job closed "
                f"the window (use-after-close)",
            )
        for start0, stop0, src0, label0 in state.epoch_writes:
            if (
                src0 != state.owner_rank
                and start < stop0
                and start0 < stop
            ):
                self._raise(
                    "MOD052", op,
                    f"{_provenance(op)} read rows [{start}, {stop}) of "
                    f"the window on rank {state.owner_rank} before the "
                    f"epoch's closing fence, but {label0} on rank {src0} "
                    f"wrote rows [{start0}, {stop0}) one-sidedly in this "
                    f"epoch; the read is not guaranteed to observe the "
                    f"transfer",
                )

    def on_fence(self, window: "Window") -> None:
        state = self._windows.get(id(window))
        if state is None:
            return
        state.epoch += 1
        state.epoch_writes = []
        state.unfenced_puts = 0
        self.parent.epochs_closed += 1

    # -- collective schedule (MOD051) ----------------------------------------

    def on_collective(self, rank: int, index: int, tag: str) -> None:
        op = self.parent.current_op()
        label = _provenance(op)
        self.parent.collectives_checked += 1
        self._schedule[rank].append((tag, label))
        for other in range(self.n_ranks):
            if other == rank:
                continue
            other_schedule = self._schedule[other]
            if len(other_schedule) > index:
                other_tag, other_label = other_schedule[index]
                if other_tag != tag:
                    self._raise(
                        "MOD051", op,
                        f"collective schedules diverge at call {index}: "
                        f"rank {rank} issued {tag!r} from {label} but "
                        f"rank {other} issued {other_tag!r} from "
                        f"{other_label}; on real MPI this deadlocks",
                    )
            elif other in self._finished:
                self._raise(
                    "MOD051", op,
                    f"rank {other} finished after {len(other_schedule)} "
                    f"collective calls, but rank {rank} issued call "
                    f"{index} ({tag!r} from {label}); rank {other} will "
                    f"never match it and the job would deadlock",
                )

    def on_rank_finished(self, rank: int) -> None:
        """Called when a rank's SPMD function returns normally."""
        self._finished.add(rank)
        n_calls = len(self._schedule[rank])
        for other in range(self.n_ranks):
            if other == rank or other in self._finished:
                continue
            other_schedule = self._schedule[other]
            if len(other_schedule) > n_calls:
                tag, label = other_schedule[n_calls]
                self._raise(
                    "MOD051", None,
                    f"rank {rank} finished after {n_calls} collective "
                    f"calls but rank {other} already issued call "
                    f"{n_calls} ({tag!r} from {label}); the collective "
                    f"schedules diverge and the job would deadlock "
                    f"waiting for rank {rank}",
                )
        if len(self._finished) == self.n_ranks:
            self._finish_job()

    def _finish_job(self) -> None:
        for state in self._windows.values():
            if state.unfenced_puts:
                self._raise(
                    "MOD052", state.creator,
                    f"{state.unfenced_puts} one-sided put(s) into the window "
                    f"on rank {state.owner_rank} (created by "
                    f"{_provenance(state.creator)}) were never completed by "
                    f"a closing fence before the job ended; peers are not "
                    f"guaranteed to observe the data (put-after-fence)",
                )
        for state in self._windows.values():
            state.closed = True
