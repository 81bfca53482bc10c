"""Simulated MPI/RDMA substrate.

The paper runs on an 8-machine InfiniBand cluster driven through MPI
one-sided operations.  This package is the drop-in substitute: ranks take
turns between collectives, numpy buffers play pinned RMA windows, rendezvous
points play collectives, and a calibrated cost model drives per-rank simulated clocks.
See DESIGN.md Section 2 for the substitution argument.
"""

from repro.mpi.clock import PhaseTimings, SimClock
from repro.mpi.cluster import ClusterResult, RankContext, SimCluster, block_share
from repro.mpi.comm import CommWorld, SimComm, WindowSet
from repro.mpi.costmodel import DEFAULT_COST_MODEL, CostModel, MachineSpec, PAPER_MACHINE
from repro.mpi.trace import ClusterTrace, TraceEvent
from repro.mpi.window import Window

__all__ = [
    "PhaseTimings",
    "SimClock",
    "ClusterResult",
    "RankContext",
    "SimCluster",
    "block_share",
    "CommWorld",
    "SimComm",
    "WindowSet",
    "CostModel",
    "MachineSpec",
    "DEFAULT_COST_MODEL",
    "PAPER_MACHINE",
    "Window",
    "ClusterTrace",
    "TraceEvent",
]
