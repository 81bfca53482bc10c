"""The runtime sanitizer: MOD050–MOD053 on the simulated substrate.

The static analyzer proves what it can from the plan DAG; this module is
the second verification layer, watching the *execution* itself.  Under
``RunOptions(sanitize=True)`` a :class:`Sanitizer` rides on the
execution context and hooks the simulated MPI substrate:

* **MOD050 — substrate finding + provenance.**  The substrate is the one
  enforcer of MPI semantics: ``Window.write`` refuses puts of the wrong
  element type, outside the window or racing another rank's put in the
  same epoch, as a typed :class:`~repro.errors.MpiSemanticsError`.  It
  records every put with an ``origin``, which this sanitizer sets to the
  operator issuing it; :meth:`SanitizerJob.translate` turns the error into
  a :class:`SanitizerError` naming the operators.  A plan's collectives
  cannot diverge (MOD051): a wave issues each one as a single
  :class:`~repro.mpi.comm.CommGroup` call for all of its ranks.  The
  rendezvous refuses divergent schedules of SPMD functions on rank
  threads, which run no sanitizer.

* **MOD052 — window-lifetime checker.**  Puts never completed by a
  closing fence (the window's epoch record is non-empty at job end),
  reads of remotely-written rows before the epoch's fence, and any access
  to a window after its job closed it.

* **MOD053 — determinism sanitizer.**  Put payloads are digested per
  window; ``execute`` replays the plan under an identical fresh context
  and diffs the write sets at every exchange boundary.  A divergence on a
  window fed only by ``deterministic=True`` operators means MOD030/031
  are trusting a mislabeled operator; windows fed by a *declared*
  non-deterministic operator are exempt (that case is the MOD03x
  warnings' territory).

Operator provenance comes from the one observer of every walk
(:func:`repro.core.lockstep.steps`, which wraps each activation in
:meth:`Sanitizer.track`): the sanitizer keeps one stack of the operators
whose generators are currently executing, so a substrate hook can name
the innermost active operator.

Findings land in a :class:`SanitizerReport` on the
:class:`~repro.core.executor.ExecutionReport` (and in EXPLAIN ANALYZE);
violations of the raising checks surface as :class:`SanitizerError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.diagnostics import RULES, Diagnostic
from repro.core.plan import walk
from repro.errors import MpiSemanticsError, SimulationError

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
    """Sanitizer-side lifetime state of one RMA window (``window.sanitizer``)."""

    __slots__ = ("job", "key", "creator", "epoch", "closed")

    def __init__(self, job: "SanitizerJob", key: tuple, creator: "Operator | None"):
        self.job = job
        self.key = key
        self.creator = creator
        self.epoch = 0
        self.closed = False

    def on_read(self, window: "Window", start: int, stop: int) -> None:
        job = self.job
        op = job.parent.current_op()
        if self.closed:
            job._raise(
                "MOD052", op,
                f"{_provenance(op)} read rows [{start}, {stop}) of the "
                f"window on rank {window.owner_rank} after its job closed "
                f"the window (use-after-close)",
            )
        for start0, stop0, src0, origin0 in window.epoch_puts:
            if src0 != window.owner_rank and start < stop0 and start0 < stop:
                job._raise(
                    "MOD052", op,
                    f"{_provenance(op)} read rows [{start}, {stop}) of "
                    f"the window on rank {window.owner_rank} before the "
                    f"epoch's closing fence, but {_provenance(origin0)} on "
                    f"rank {src0} wrote rows [{start0}, {stop0}) one-sidedly "
                    f"in this epoch; the read is not guaranteed to observe "
                    f"the transfer",
                )


class Sanitizer:
    """One sanitized execution's recorder, shared by driver and all jobs.

    Unlocked: every wave walks its ranks in lockstep on one thread, and
    jobs are created sequentially on the driver (which is what makes window
    keys — and therefore the MOD053 replay diff — deterministic).  One
    thread at a time walks an execution (a served one is stepped under
    the scheduler's step lock), so one provenance stack serves them all.
    """

    def __init__(self) -> None:
        #: The operators whose generators are executing, innermost last.
        self._stack: list["Operator"] = []
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

    def current_op(self) -> "Operator | None":
        return self._stack[-1] if self._stack else None

    def track(self, op: "Operator", iterator):
        """Wrap one data-path activation so substrate hooks can name ``op``.

        ``op`` is on top of the stack exactly while its generator runs, so
        the innermost *currently executing* operator is always on top.
        """
        stack = self._stack
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
    """Sanitizer state of one MPI job (one dispatch attempt).

    Installed as ``comm.sanitizer`` on every rank of the job; only the
    rank being walked calls in.  The hooks return the origin
    the substrate records with a put or collective contribution: the
    operator issuing it.
    """

    def __init__(self, parent: Sanitizer, seq: int, n_ranks: int) -> None:
        self.parent = parent
        self.seq = seq
        #: The windows this job registered, in creation order.
        self._windows: list["Window"] = []
        #: Per owner rank, how many windows it registered (deterministic
        #: window keys across replays).
        self._win_counter = [0] * n_ranks

    def _raise(self, rule_id: str, op: "Operator | None", message: str) -> None:
        if op is not None and rule_id in op.lint_suppressions:
            return
        raise SanitizerError(_diagnostic(rule_id, op, message))

    # -- window registration & lifetime (MOD052/053) -------------------------

    def on_win_create(self, window: "Window", rank: int) -> None:
        op = self.parent.current_op()
        nth = self._win_counter[rank]
        self._win_counter[rank] = nth + 1
        key = (self.seq, rank, nth)
        window.sanitizer = _WindowState(self, key, op)
        self._windows.append(window)
        self.parent.windows_tracked += 1
        self.parent.window_meta.setdefault(
            key,
            (
                _provenance(op),
                type(op).__name__ if op is not None else "<substrate>",
                _feeds_nondeterminism(op),
            ),
        )

    def on_put(
        self, window: "Window", offset: int, data: "RowVector", source_rank: int
    ) -> "Operator | None":
        state = window.sanitizer
        op = self.parent.current_op()
        stop = offset + len(data)
        self.parent.puts_checked += 1
        if state.closed:
            self._raise(
                "MOD052", op,
                f"{_provenance(op)} issued a one-sided put of rows "
                f"[{offset}, {stop}) into the window on rank "
                f"{window.owner_rank} after its job closed the window "
                f"(use-after-close)",
            )
        self.parent._record_put(
            state.key, state.epoch, offset, stop, source_rank, _digest(data)
        )
        return op

    def on_fence(self, window: "Window") -> None:
        window.sanitizer.epoch += 1
        self.parent.epochs_closed += 1

    def on_collective(self) -> "Operator | None":
        self.parent.collectives_checked += 1
        return self.parent.current_op()

    def close(self) -> None:
        """At job end: MOD052 put-after-fence, then close every window."""
        for window in self._windows:
            if window.epoch_puts:
                creator = window.sanitizer.creator
                self._raise(
                    "MOD052", creator,
                    f"{len(window.epoch_puts)} one-sided put(s) into the "
                    f"window on rank {window.owner_rank} (created by "
                    f"{_provenance(creator)}) were never completed by a "
                    f"closing fence before the job ended; peers are not "
                    f"guaranteed to observe the data (put-after-fence)",
                )
        for window in self._windows:
            window.sanitizer.closed = True

    # -- provenance of substrate findings (MOD050) ----------------------------

    def translate(self, exc: MpiSemanticsError) -> None:
        """Raise the substrate's ``exc`` as a :class:`SanitizerError`
        naming the operators behind its origins.

        Returns when the refused operation's operator suppresses the rule;
        the caller then re-raises ``exc`` unnamed.
        """
        who = [
            f"{_provenance(origin)} on rank {rank}"
            for rank, origin in zip(exc.ranks, exc.origins)
        ]
        if exc.kind == "race":
            message = (
                f"RMA write-set race: {who[1]} and {who[0]} both wrote rows "
                f"[{exc.rows[0]}, {exc.rows[1]}) of the window on rank "
                f"{exc.owner_rank}; the exclusive write regions the exchange "
                f"derived from its histograms overlap"
            )
        else:  # type, bounds: one party, the substrate's own words
            message = f"{who[0]}: {exc.detail}"
            if exc.rule_id == "MOD050":
                message += f" on rank {exc.owner_rank}"
            if exc.kind == "bounds":
                message += "; the histogram ladder promised a region it does not have"
        self._raise(exc.rule_id, exc.origins[0], message)
