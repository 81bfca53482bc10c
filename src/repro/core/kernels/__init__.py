"""Vectorized batch kernels: the sub-operators' one data path.

Sub-operators (`repro.core.operators`) define *what* each step computes
and what it costs; the kernels here define *how* it is computed, in both
execution modes, over whole :class:`~repro.types.collections.RowVector` morsels at
once.  Kernels are pure numpy functions — they never touch the
execution context, charge costs, or pull from upstreams — so the same
kernel is reusable from any operator (and testable in isolation).

Two join kernels share one emission contract (``emit_probe_hits``) and
run on one int64 column of key codes (``JoinKeyCodes``, whatever the key
types and count): sorted-hash (``hash_join``, range-oblivious) and radix
direct-address (``radix_join``, dense key ranges: a key -> row table when
the keys are unique, per-key runs otherwise), dispatched by
``BuildProbe`` with :func:`radix_eligible`.  ``scatter`` is the linear-time
stable order under every partition, exchange, radix build and reduce-by-key.
"""

from repro.core.kernels.hash_join import (
    HashJoinBuild,
    HashJoinSpec,
    JoinKeyCodes,
    emit_probe_hits,
    mix_hash,
    outer_tail,
    probe_morsel,
)
from repro.core.kernels.radix_join import (
    HARD_RANGE_CAP,
    RADIX_MIN_ROWS,
    RadixJoinBuild,
    radix_eligible,
    radix_fanout,
    radix_probe_morsel,
    select_join_kernel,
)

__all__ = [
    "HARD_RANGE_CAP",
    "HashJoinBuild",
    "HashJoinSpec",
    "JoinKeyCodes",
    "RADIX_MIN_ROWS",
    "RadixJoinBuild",
    "emit_probe_hits",
    "mix_hash",
    "outer_tail",
    "probe_morsel",
    "radix_eligible",
    "radix_fanout",
    "radix_probe_morsel",
    "select_join_kernel",
]
