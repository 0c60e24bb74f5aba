"""A Legion-like task-based runtime substrate.

The runtime provides the pieces of Legion that Apophenia depends on:

* logical regions organized in region trees with disjoint and aliased
  partitions (:mod:`repro.runtime.region`),
* tasks carrying region requirements with privileges
  (:mod:`repro.runtime.task`),
* a dynamic dependence analysis that extracts parallelism from the issued
  task stream (:mod:`repro.runtime.deps`),
* a trace memoization engine implementing ``tbegin``/``tend`` semantics with
  recording, validation, and replay (:mod:`repro.runtime.tracing`),
* a calibrated virtual-time cost model and a three-stage pipeline simulator
  (application -> analysis -> execution) used to compute throughput
  (:mod:`repro.runtime.costmodel`, :mod:`repro.runtime.pipeline`),
* machine descriptions of the Perlmutter and Eos supercomputers
  (:mod:`repro.runtime.machine`), and
* the per-session runtime spec of the session pools
  (:mod:`repro.runtime.session`).
"""

from repro.runtime.region import RegionForest, LogicalRegion, Partition
from repro.runtime.task import Task, RegionRequirement
from repro.runtime.privilege import Privilege
from repro.runtime.runtime import Runtime
from repro.runtime.costmodel import CostModel
from repro.runtime.machine import MachineConfig, PERLMUTTER, EOS

__all__ = [
    "RegionForest",
    "LogicalRegion",
    "Partition",
    "Task",
    "RegionRequirement",
    "Privilege",
    "Runtime",
    "CostModel",
    "MachineConfig",
    "PERLMUTTER",
    "EOS",
]
