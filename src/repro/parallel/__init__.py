"""Thread-level parallelism: partitioning, scheduling policies, engines.

The split mirrors the paper's structure: *policies*
(:mod:`repro.parallel.scheduler`) decide who computes which tile in what
order; *engines* (:mod:`repro.parallel.engine`) execute them on this host;
the machine simulator (:mod:`repro.machine`) replays the same policies on
modelled hardware.
"""

from repro.parallel.engine import (
    ENGINE_KINDS,
    EngineFailure,
    SerialEngine,
    SharedMemoryEngine,
    ThreadEngine,
    fallback_engine,
    make_engine,
)
from repro.parallel.partition import (
    block_partition,
    chunked_partition,
    cost_balanced_partition,
    cyclic_partition,
    imbalance,
)
from repro.parallel.scheduler import (
    Assignment,
    CyclicScheduler,
    DynamicScheduler,
    GuidedScheduler,
    LptScheduler,
    SchedulerPolicy,
    StaticScheduler,
    WorkStealingScheduler,
    make_scheduler,
)

__all__ = [
    "Assignment",
    "CyclicScheduler",
    "DynamicScheduler",
    "ENGINE_KINDS",
    "EngineFailure",
    "GuidedScheduler",
    "LptScheduler",
    "SchedulerPolicy",
    "SerialEngine",
    "SharedMemoryEngine",
    "StaticScheduler",
    "ThreadEngine",
    "WorkStealingScheduler",
    "block_partition",
    "chunked_partition",
    "cost_balanced_partition",
    "cyclic_partition",
    "fallback_engine",
    "imbalance",
    "make_engine",
    "make_scheduler",
]
