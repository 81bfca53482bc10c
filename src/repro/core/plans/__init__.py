"""Pre-assembled sub-operator plans for the paper's use cases (Section 4).

Each builder validates its own arguments and composes its plan from
:mod:`repro.core.plans.fragments`, where the exchange ladder, the broadcast
ladder, the local partitioning level and the driver shell are written once.
"""

from repro.core.plans.broadcast_join import BroadcastJoinPlan, build_broadcast_join
from repro.core.plans.groupby import DistributedGroupByPlan, build_distributed_groupby
from repro.core.plans.join import DistributedJoinPlan, build_distributed_join
from repro.core.plans.join_sequence import JoinSequencePlan, build_join_sequence

__all__ = [
    "BroadcastJoinPlan",
    "build_broadcast_join",
    "DistributedGroupByPlan",
    "build_distributed_groupby",
    "DistributedJoinPlan",
    "build_distributed_join",
    "JoinSequencePlan",
    "build_join_sequence",
]
