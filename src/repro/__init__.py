"""repro — reproduction of Misra, Pamnany & Aluru (IPDPS 2014).

*Parallel Mutual Information Based Construction of Whole-Genome Networks on
the Intel Xeon Phi Coprocessor.*

The package reimplements the TINGe gene-network reconstruction algorithm
(B-spline mutual information + shared-permutation significance testing) with
the paper's multi-level parallel structure made explicit:

* **vector level** — GEMM-formulated, numpy/BLAS-vectorized MI kernels
  (:mod:`repro.core`);
* **thread level** — tile-level scheduling and real parallel engines
  (:mod:`repro.parallel`);
* **chip level** — explicit machine models of the Xeon Phi 5110P and a
  dual-socket Xeon, with a discrete-event schedule simulator that reproduces
  the paper's scaling behaviour on hosts without the hardware
  (:mod:`repro.machine`).

Supporting substrates: synthetic regulatory-network expression data with
ground truth (:mod:`repro.data`), reference baselines (Pearson, CLR,
ARACNE, cluster-TINGe — :mod:`repro.baselines`), statistics utilities
(:mod:`repro.stats`) and network-accuracy analysis (:mod:`repro.analysis`).

Quickstart
----------
>>> from repro import reconstruct_network, TingeConfig
>>> from repro.data import yeast_subset
>>> ds = yeast_subset(n_genes=60, m_samples=200, seed=1)
>>> result = reconstruct_network(ds.expression, ds.genes,
...                              TingeConfig(n_permutations=20))
>>> result.network.n_edges > 0
True
"""

from repro.core import (
    GeneNetwork,
    TingeConfig,
    TingePipeline,
    TingeResult,
    mi_bspline,
    mi_matrix,
    reconstruct_network,
)

__version__ = "1.0.0"

__all__ = [
    "GeneNetwork",
    "TingeConfig",
    "TingePipeline",
    "TingeResult",
    "__version__",
    "mi_bspline",
    "mi_matrix",
    "reconstruct_network",
]
