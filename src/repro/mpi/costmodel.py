"""Calibrated cost model for the simulated RDMA cluster.

The reproduction executes every algorithm for real on real (scaled-down)
data; only *time* is modeled.  Each simulated rank owns a
:class:`~repro.mpi.clock.SimClock`, and the operators charge it through this
cost model.  The constants are calibrated to the paper's testbed (Table 2:
2× Xeon E5-2609 @ 2.4 GHz, 128 GB RAM, Mellanox QDR InfiniBand) so that the
*shape* of every figure — who wins, by what factor, where crossovers fall —
is produced by the same structural effects the paper describes:

* network volume (halved by radix compression),
* memory-bandwidth-bound partitioning and materialization,
* window registration overhead (identified as an RDMA bottleneck in [20]),
* collective synchronization stalls amplified by per-rank jitter (the
  paper's "tail latencies" in the global-histogram and window-allocation
  phases),
* interpretation/abstraction overhead of sub-operator pipelines relative to
  hand-fused monolithic loops (the paper's RowScan microbenchmark: ~1.0 s
  vs ~0.8 s for the raw C++ loop, i.e. a ~1.25× factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = ["CostModel", "MachineSpec", "DEFAULT_COST_MODEL", "PAPER_MACHINE"]


@dataclass(frozen=True)
class MachineSpec:
    """Static description of one cluster machine (paper Table 2)."""

    cores: int = 8
    cpu_ghz: float = 2.4
    ram_gb: int = 128
    l3_cache_bytes: int = 2 * 10 * 1024 * 1024
    network: str = "Mellanox QDR HCA"


#: The machines of the paper's 8-node RDMA cluster.
PAPER_MACHINE = MachineSpec()


@dataclass(frozen=True)
class CostModel:
    """Per-rank timing constants, all in (simulated) seconds or bytes/second.

    A *rank* models one worker process; with the default calibration one
    rank stands for one machine running the paper's 8 cores, so per-tuple
    CPU costs are per-machine aggregate throughputs.
    """

    machine: MachineSpec = field(default_factory=MachineSpec)

    # -- CPU work (seconds per tuple, aggregate over the machine's cores) --
    #: Sequential scan + hash of a 16-byte tuple.
    cpu_scan_tuple: float = 1.0e-9
    #: Histogram bucket count increment (hash + increment).
    cpu_histogram_tuple: float = 0.8e-9
    #: Radix partitioning with software write-combining (memory bound).
    cpu_partition_tuple: float = 1.4e-9
    #: Hash-table insert during the build phase.
    cpu_build_tuple: float = 2.2e-9
    #: Hash-table lookup during the probe phase.
    cpu_probe_tuple: float = 1.8e-9
    #: Aggregation update (ReduceByKey hash-map upsert).
    cpu_reduce_tuple: float = 2.0e-9
    #: Scalar map/filter/projection evaluation.
    cpu_map_tuple: float = 0.6e-9
    #: One comparison level of an in-cache sort (total sort cost is
    #: ``tuples × log2(tuples)`` of these).
    cpu_sort_tuple: float = 0.5e-9
    #: One step of a sorted-merge (cheaper than a hash probe: sequential).
    cpu_merge_tuple: float = 1.0e-9

    # -- memory system ----------------------------------------------------
    #: Streaming memory bandwidth per machine.
    mem_bandwidth: float = 38.0e9
    #: MaterializeRowVector grows with realloc; effective write amplification.
    realloc_amplification: float = 1.6

    # -- network (QDR InfiniBand, one-sided RDMA) --------------------------
    #: Sustained one-sided RDMA bandwidth per rank.
    net_bandwidth: float = 3.2e9
    #: Per-message latency (put/get issue overhead).
    net_latency: float = 2.0e-6
    #: Fixed cost of registering (pinning) an RMA window with the NIC.
    window_registration_base: float = 250.0e-6
    #: Per-byte cost of pinning window memory.
    window_registration_per_byte: float = 0.15e-9
    #: Software overhead per participant of one collective step.
    collective_step: float = 6.0e-6

    # -- execution-layer structure ----------------------------------------
    #: Abstraction overhead of sub-operator pipelines in fused (JIT) mode,
    #: relative to a hand-written monolithic loop (paper §5.1.2: ~1.25x).
    fused_overhead: float = 1.25
    #: Overhead of operators isolated in *small* pipelines, where the
    #: compiler inlines everything; the paper observes these end up slightly
    #: faster than the original hand-written code (§5.1, histogram phase).
    small_pipeline_overhead: float = 0.92
    #: Largest pipeline (operator count) that still gets full inlining.
    small_pipeline_max_ops: int = 4
    #: Overhead of the row-at-a-time interpreted mode (no JIT), for the
    #: interpreted-vs-fused ablation.
    interpreted_overhead: float = 8.0
    #: Fraction of network time hidden by overlapping partitioning with
    #: asynchronous RDMA writes (software write-combining + async puts).
    network_overlap: float = 0.35
    #: Per-rank relative CPU-speed jitter; the source of collective stalls.
    jitter_fraction: float = 0.06

    # -- smart-NIC offload (extension; paper §1 future work) ----------------
    #: Per-tuple cost of an aggregation update on the NIC's cores (slower
    #: than the host CPU's hash-aggregation rate).
    nic_agg_tuple: float = 5.0e-9
    #: Fraction of NIC compute hidden behind the host's partitioning work
    #: (the NIC processes buffers while the CPU prepares the next ones).
    nic_overlap: float = 0.75

    # -- derived helpers ---------------------------------------------------

    @property
    def cache_budget_bytes(self) -> int:
        """Bytes one cache-resident working set may occupy: half the L3,
        leaving the other half for the consumer's state.  Morsel sizing
        and the planner's local partitioning depth both size against it."""
        return self.machine.l3_cache_bytes // 2

    def cpu_cost(self, kind: str, tuples: int, overhead: float = 1.0) -> float:
        """Seconds of CPU work for ``tuples`` records of operator ``kind``.

        Args:
            kind: One of ``scan``, ``histogram``, ``partition``, ``build``,
                ``probe``, ``reduce``, ``map``.
            tuples: Number of records processed.
            overhead: Execution-layer multiplier (``fused_overhead`` for
                Modularis pipelines, 1.0 for the monolithic baseline).
        """
        per_tuple = getattr(self, f"cpu_{kind}_tuple")
        return per_tuple * tuples * overhead

    def materialize_cost(self, payload_bytes: int) -> float:
        """Seconds to materialize ``payload_bytes`` with realloc growth."""
        return payload_bytes * self.realloc_amplification / self.mem_bandwidth

    def copy_cost(self, payload_bytes: int) -> float:
        """Seconds to stream-copy ``payload_bytes`` through memory."""
        return payload_bytes / self.mem_bandwidth

    def transfer_cost(self, payload_bytes: int, messages: int = 1) -> float:
        """Seconds the NIC needs to push ``payload_bytes`` to remote memory."""
        return messages * self.net_latency + payload_bytes / self.net_bandwidth

    def window_registration_cost(self, window_bytes: int) -> float:
        """Seconds to reserve, pin, and register an RMA window."""
        return (
            self.window_registration_base
            + window_bytes * self.window_registration_per_byte
        )

    def collective_cost(self, n_ranks: int, payload_bytes: int = 0) -> float:
        """Seconds for one collective (barrier/allreduce) among ``n_ranks``.

        Modeled as a binomial-tree dissemination: ``ceil(log2(n))`` steps of
        fixed software overhead plus the payload crossing the network once
        per step.
        """
        if n_ranks <= 1:
            return self.collective_step
        steps = math.ceil(math.log2(n_ranks))
        return steps * (self.collective_step + payload_bytes / self.net_bandwidth)

    def with_overrides(self, **kwargs: object) -> "CostModel":
        """A copy of this model with some constants replaced (ablations)."""
        return replace(self, **kwargs)


#: The calibration used by every benchmark unless overridden.
DEFAULT_COST_MODEL = CostModel()
