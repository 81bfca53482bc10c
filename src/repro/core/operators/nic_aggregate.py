"""NicPartialAggregate: a smart-NIC offload sub-operator (extension).

The paper's introduction names exactly this as the pay-off of the
sub-operator design: *"using smart NICs ... to execute (partial)
aggregations ... should be possible by introducing a single
target-specific sub-operator to handle the data transfer, while reusing
existing operators for the remaining logic."*

This operator is that single target-specific sub-operator.  Semantically
it is a partial ``ReduceByKey`` (a combiner) placed in front of the
network exchange, shrinking the stream to one tuple per key before any
histogram is computed or byte is transmitted.  What makes it
platform-specific is only its *cost*: the aggregation runs on the NIC's
cores — slower per tuple than the host, but largely overlapped with the
host's partitioning work — so the host clock is charged just the
non-overlapped remainder, at NIC rates, with no CPU jitter.

Everything downstream (LocalHistogram, MpiHistogram, MpiExchange, the
nested partition/aggregate plans) is reused unchanged.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.context import ExecutionContext
from repro.core.functions import ReduceFunction
from repro.core.lockstep import Lockstep, Step
from repro.core.operator import Operator
from repro.core.operators.reduce_ops import ReduceByKey

__all__ = ["NicPartialAggregate"]


class NicPartialAggregate(Operator):
    """Combine tuples per key on the smart NIC before the network transfer.

    Same data semantics as :class:`ReduceByKey`; only the charging differs
    (NIC rates, overlapped with host work, attributed to the
    network-partitioning phase it accelerates).
    """

    abbreviation = "NA"
    phase_name = "network_partition"
    breaks_pipeline = True

    def __init__(
        self,
        upstream: Operator,
        key_fields: Sequence[str] | str,
        fn: ReduceFunction,
    ) -> None:
        # Delegate the aggregation and the type rule to a private
        # ReduceByKey over the same upstream; this operator only re-owns the
        # cost accounting.
        self._combiner = ReduceByKey(upstream, key_fields, fn)
        super().__init__(upstreams=(upstream,))

    def infer_type(self, upstream_types):
        return self._combiner.infer_type(upstream_types)

    def signature(self) -> tuple:
        return self._combiner.signature()

    def _charge_nic(self, ctx: ExecutionContext, tuples: int) -> None:
        if tuples <= 0:
            return
        ctx.set_phase(self.assigned_phase)
        seconds = tuples * ctx.cost.nic_agg_tuple * (1.0 - ctx.cost.nic_overlap)
        ctx.clock.advance(seconds)  # NIC-paced: no host CPU jitter

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        """The combiner's aggregation, billed to the NIC instead of the host.

        The upstream is drained normally (the host still reads its data and
        pays its scan costs); the aggregation itself is charged at NIC
        rates, so the host never pays hash-aggregation rates for it.
        """
        yield self._combiner.aggregated(self, lx, self._charge_nic)
