"""Baselines: the monolithic RDMA operators and the engine models."""

from repro.baselines.engine_base import EngineModel, EngineProfile, EngineRun
from repro.baselines.memsql_sim import MEMSQL_PROFILE, MemSqlModel
from repro.baselines.monolithic_groupby import (
    MonolithicGroupByResult,
    run_monolithic_groupby,
)
from repro.baselines.monolithic_join import (
    MonolithicJoinResult,
    run_monolithic_join,
)
from repro.baselines.presto_sim import PRESTO_PROFILE, PrestoModel

__all__ = [
    "EngineModel",
    "EngineProfile",
    "EngineRun",
    "MEMSQL_PROFILE",
    "MemSqlModel",
    "MonolithicGroupByResult",
    "run_monolithic_groupby",
    "MonolithicJoinResult",
    "run_monolithic_join",
    "PRESTO_PROFILE",
    "PrestoModel",
]
