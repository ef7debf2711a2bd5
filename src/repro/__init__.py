"""repro — reproduction of "Dynamic Metadata Management for Petabyte-Scale
File Systems" (Weil, Pollack, Brandt, Miller — SC 2004).

A deterministic discrete-event simulation of a metadata server (MDS)
cluster for an object-based storage system, implementing the paper's
dynamic subtree partitioning and the four competing metadata distribution
strategies it evaluates, plus every substrate the study depends on:

* :mod:`repro.sim`        — the discrete-event kernel
* :mod:`repro.namespace`  — the file-system hierarchy (embedded inodes,
  hard-link anchor table, permissions, snapshot generator)
* :mod:`repro.storage`    — journal + object-store tiers (one I/O per
  directory object)
* :mod:`repro.cache`      — hierarchical LRU and replica registry
* :mod:`repro.partition`  — the five partitioning strategies
* :mod:`repro.mds`        — MDS nodes/cluster: serving, traversal,
  traffic control, load balancing, migration, dirfrag, failover
* :mod:`repro.clients`    — client population and workload generators
* :mod:`repro.proxy`      — the request-coalescing proxy tier
* :mod:`repro.metrics`    — counters, series, statistics, text tables
* :mod:`repro.obs`        — request tracing (spans, sinks)
* :mod:`repro.experiments` — configs and drivers for Figures 2-7

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
