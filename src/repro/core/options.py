"""RunOptions: the one immutable bundle of per-execution knobs.

Before the serving layer, every entry point (``execute``,
``ModularisQuery.run``, the ``core/plans/*`` plan ``run()``s) grew its own
copy of the same keyword sprawl — ``mode``, ``profile``, ``metrics``,
``faults``, ``sanitize``, ``join_kernel``, ... — and every layer that
rebuilt an :class:`~repro.core.context.ExecutionContext` (stage-recovery
workers, the sanitizer replay) had to copy each knob by hand, so adding a
knob meant touching half a dozen call chains and silently dropping it in
the ones you missed.

:class:`RunOptions` consolidates them: a frozen dataclass accepted by
every public entry point and carried whole by every ``ExecutionContext``
of a run — the driver's, each rank's, stage retries' and the sanitizer
replay's — which read their knobs from it and keep no copy of their own.
It is the only way to configure a run: the per-call keywords are gone.

Immutability matters for the serving layer: a deployed
:class:`~repro.serving.registry.PreparedPlan` captures a ``RunOptions`` as
its execution defaults, and concurrent queries sharing it must not be able
to mutate each other's knobs mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import ExecutionError
from repro.mpi.costmodel import DEFAULT_COST_MODEL, CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.policy import FaultPolicy

__all__ = ["RunOptions"]

#: Execution modes.  Both run the same vectorized kernels; ``fused`` charges
#: them at the JiT-compiled rates (low abstraction overhead), ``interpreted``
#: at the cost model's rate for a tuple-at-a-time Volcano interpreter.
MODES = ("fused", "interpreted")

#: Valid join-kernel policies for ``BuildProbe.batches``.
JOIN_KERNELS = ("auto", "sorted", "radix")


@dataclass(frozen=True)
class RunOptions:
    """Everything one plan execution can be asked to do, in one value.

    Attributes:
        mode: ``fused`` (JiT-compiled pipelines) or ``interpreted``.
        cost_model: Timing calibration for the driver's simulated clock;
            workers use the cost model of their cluster.
        verify_plans: Run the static analyzer before executing.  ``None``
            (the default) defers to the process-wide
            :data:`repro.core.executor.VERIFY_PLANS` default; ``False``
            forces verification off even when that is set.
        profile: Record per-operator spans and attach the resulting
            :class:`~repro.observability.profile.PlanProfile` to the report.
        metrics: Record work-accounting metrics and attach the
            :class:`~repro.observability.metrics.MetricsSnapshot`.
        faults: Fault-injection policy (:class:`repro.faults.FaultPolicy`)
            to run under; ``None`` keeps every fault path cold.
        sanitize: Run under the MOD05x runtime sanitizer, including the
            determinism replay, and attach the
            :class:`~repro.analysis.sanitizer.SanitizerReport`.
        join_kernel: ``BuildProbe`` kernel policy: ``auto``, ``sorted``,
            or ``radix``.
        morsel_rows: Target rows per morsel on the batch data path;
            ``None`` lets the context auto-tune per operator.
    """

    mode: str = "fused"
    cost_model: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    verify_plans: bool | None = None
    profile: bool = False
    metrics: bool = False
    faults: "FaultPolicy | None" = None
    sanitize: bool = False
    join_kernel: str = "auto"
    morsel_rows: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ExecutionError(f"unknown execution mode {self.mode!r}")
        if self.join_kernel not in JOIN_KERNELS:
            raise ExecutionError(
                f"unknown join kernel {self.join_kernel!r}; "
                f"supported: {JOIN_KERNELS}"
            )
        if self.morsel_rows is not None and self.morsel_rows < 1:
            raise ExecutionError(
                f"morsel size must be at least one row, got {self.morsel_rows}"
            )

    def replace(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (the options stay immutable)."""
        return replace(self, **changes)
