"""The paper's primary contribution: B-spline MI network reconstruction.

Module map (bottom-up):

* :mod:`repro.core.bspline` — B-spline basis and per-gene weight matrices.
* :mod:`repro.core.discretize` — rank/copula and other preprocessing.
* :mod:`repro.core.entropy` — plug-in entropies over weighted bins.
* :mod:`repro.core.mi` — pair and tile MI kernels (GEMM formulation).
* :mod:`repro.core.tiling` — upper-triangular tile decomposition.
* :mod:`repro.core.exec` — the unified tile executor (sources, sinks, plans).
* :mod:`repro.core.mi_matrix` — the tiled all-pairs driver.
* :mod:`repro.core.permutation` — shared-permutation significance testing.
* :mod:`repro.core.threshold` — thresholding policies.
* :mod:`repro.core.network` — the GeneNetwork result object.
* :mod:`repro.core.pipeline` — the end-to-end pipeline.
"""

from repro.core.adaptive import mi_adaptive
from repro.core.bspline import BsplineBasis, weight_codebook, weight_matrix, weight_tensor
from repro.core.checkpoint import CheckpointSink, checkpoint_status, mi_matrix_checkpointed
from repro.core.consensus import ConsensusResult, bootstrap_networks, consensus_network
from repro.core.discretize import preprocess, rank_transform, zscore
from repro.core.driver import AutoRunResult, auto_reconstruct
from repro.core.exact import ExactTestResult, exact_mi_pvalues
from repro.core.exec import (
    SCHEDULE_NAMES,
    CodebookSource,
    DenseSink,
    MatrixSink,
    TensorSource,
    TilePlan,
    WeightSource,
    plan_tiles,
    run_tile_plan,
    schedule_policy,
    weights_fingerprint,
)
from repro.core.incremental import NetworkUpdater
from repro.core.entropy import entropy_from_probs, james_stein_shrinkage, marginal_entropies
from repro.core.mi import (
    mi_bspline,
    mi_bspline_pair,
    mi_histogram_pair,
    mi_kraskov,
    mi_shrinkage_pair,
    mi_tile,
)
from repro.core.mi_matrix import MiMatrixResult, mi_matrix
from repro.core.network import GeneNetwork
from repro.core.permutation import NullDistribution, pooled_null, per_pair_pvalues
from repro.core.provenance import (
    data_fingerprint,
    load_run_record,
    run_record,
    save_run_record,
    verify_run_record,
)
from repro.core.pipeline import TingeConfig, TingePipeline, TingeResult, reconstruct_network
from repro.core.threshold import fdr_adjacency, threshold_adjacency, top_k_adjacency
from repro.core.tiling import Tile, pair_count, tile_grid

__all__ = [
    "BsplineBasis",
    "CheckpointSink",
    "CodebookSource",
    "ConsensusResult",
    "DenseSink",
    "ExactTestResult",
    "GeneNetwork",
    "MatrixSink",
    "MiMatrixResult",
    "NetworkUpdater",
    "NullDistribution",
    "AutoRunResult",
    "SCHEDULE_NAMES",
    "TensorSource",
    "Tile",
    "TilePlan",
    "TingeConfig",
    "TingePipeline",
    "TingeResult",
    "WeightSource",
    "entropy_from_probs",
    "auto_reconstruct",
    "bootstrap_networks",
    "checkpoint_status",
    "consensus_network",
    "data_fingerprint",
    "exact_mi_pvalues",
    "fdr_adjacency",
    "james_stein_shrinkage",
    "load_run_record",
    "marginal_entropies",
    "mi_adaptive",
    "mi_bspline",
    "mi_bspline_pair",
    "mi_histogram_pair",
    "mi_kraskov",
    "mi_matrix",
    "mi_matrix_checkpointed",
    "mi_shrinkage_pair",
    "mi_tile",
    "pair_count",
    "per_pair_pvalues",
    "plan_tiles",
    "pooled_null",
    "preprocess",
    "rank_transform",
    "reconstruct_network",
    "run_record",
    "run_tile_plan",
    "save_run_record",
    "schedule_policy",
    "weights_fingerprint",
    "threshold_adjacency",
    "tile_grid",
    "verify_run_record",
    "top_k_adjacency",
    "weight_codebook",
    "weight_matrix",
    "weight_tensor",
    "zscore",
]
