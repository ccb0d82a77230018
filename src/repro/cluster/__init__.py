"""Distributed execution: the elastic backend and its metering.

A socket coordinator (:mod:`repro.cluster.transport`,
:mod:`repro.cluster.taskgraph`, :mod:`repro.cluster.elastic`) shards one
reconstruction's tile graph across worker processes that may join and
leave mid-run, behind the standard engine protocol
(``make_engine("elastic")``), with bit-identical output.  A distributed
run is ``reconstruct_network(data, genes, cfg, engine=ElasticEngine(...))``;
every byte it moves is metered per peer on ``engine.meter``
(:class:`~repro.cluster.comm.CommMeter`) and the tiles each worker ran
are in ``engine.last_graph.owners()``.  See ``docs/DISTRIBUTED.md`` for
the layering.
"""

from repro.cluster.comm import CommMeter
from repro.cluster.elastic import ElasticCoordinator, ElasticEngine, worker_main
from repro.cluster.taskgraph import TaskGraph, TileTask, compile_plan
from repro.cluster.transport import Channel, FrameError

__all__ = [
    "Channel",
    "CommMeter",
    "ElasticCoordinator",
    "ElasticEngine",
    "FrameError",
    "TaskGraph",
    "TileTask",
    "compile_plan",
    "worker_main",
]
