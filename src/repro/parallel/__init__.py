"""Semantic parallelism: decomposition, conflicts, simulated scheduling
(paper, section 4; [HHM86]).

One user operation decomposes into per-molecule units of work (DUs),
each with its read/write set and its measured cost in atom reads.  The
units execute serially in the calling thread; the simulated
multiprocessor schedule (:func:`simulate`) replays their costs to show
the speedup that conflict-free decomposition admits."""

from repro.parallel.decompose import (
    ConstructionWorker,
    SemanticDecomposer,
    UnitOfWork,
)
from repro.parallel.scheduler import (
    ScheduleReport,
    ScheduledUnit,
    build_conflict_edges,
    simulate,
)
from repro.parallel.api import ParallelQueryResult, parallel_select

__all__ = [
    "ConstructionWorker",
    "ParallelQueryResult",
    "ScheduleReport",
    "ScheduledUnit",
    "SemanticDecomposer",
    "UnitOfWork",
    "build_conflict_edges",
    "parallel_select",
    "simulate",
]
