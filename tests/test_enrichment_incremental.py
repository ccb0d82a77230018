"""Tests for module enrichment and the incremental updater's inputs."""

import numpy as np
import pytest

from repro import TingeConfig, reconstruct_network
from repro.analysis.enrichment import enrich_modules, regulon_annotations
from repro.analysis.modules import GeneModule, modularity_modules
from repro.core.bspline import weight_tensor
from repro.core.discretize import rank_transform
from repro.core.incremental import NetworkUpdater
from repro.core.mi_matrix import mi_matrix
from repro.core.permutation import pooled_null
from repro.data import yeast_subset
from repro.data.grn import scale_free_grn


class TestRegulonAnnotations:
    def test_categories_contain_regulator_and_targets(self):
        truth = scale_free_grn(30, n_regulators=3, seed=0)
        cats = regulon_annotations(truth, min_size=2)
        for name, members in cats.items():
            reg = name.split(":", 1)[1]
            assert reg in members
            assert len(members) >= 2

    def test_min_size_filters(self):
        truth = scale_free_grn(30, n_regulators=3, seed=0)
        small = regulon_annotations(truth, min_size=2)
        large = regulon_annotations(truth, min_size=10)
        assert len(large) <= len(small)

    def test_validation(self):
        truth = scale_free_grn(10, seed=0)
        with pytest.raises(ValueError):
            regulon_annotations(truth, min_size=0)


class TestEnrichModules:
    def test_planted_module_enriched(self):
        # A module that IS a regulon must enrich for it.
        cats = {"regulon:R": frozenset({"a", "b", "c", "d"})}
        module = GeneModule(genes=("a", "b", "c"), n_internal_edges=3,
                            mean_internal_mi=0.5)
        hits = enrich_modules([module], cats, n_genes=100, alpha=0.05)
        assert len(hits) == 1
        assert hits[0].category == "regulon:R"
        assert hits[0].pvalue < 1e-4
        assert hits[0].fold_enrichment(100) > 10

    def test_random_module_not_enriched(self):
        cats = {"c": frozenset({f"g{i}" for i in range(10)})}
        module = GeneModule(genes=("g0", "x1", "x2", "x3", "x4"),
                            n_internal_edges=4, mean_internal_mi=0.2)
        # One overlap of 5 picks from a 10/1000 category: unremarkable.
        hits = enrich_modules([module], cats, n_genes=1000, alpha=0.01)
        assert hits == []

    def test_empty_inputs(self):
        assert enrich_modules([], {"c": frozenset({"a"})}, 10) == []
        module = GeneModule(genes=("a",), n_internal_edges=0, mean_internal_mi=0)
        assert enrich_modules([module], {}, 10) == []

    def test_end_to_end_recovers_regulons(self):
        """Modules detected from reconstructed networks enrich for the true
        regulons that generated the data."""
        ds = yeast_subset(n_genes=60, m_samples=350, seed=70)
        res = reconstruct_network(ds.expression, ds.genes,
                                  TingeConfig(n_permutations=20))
        modules = modularity_modules(res.network, min_size=4)
        cats = regulon_annotations(ds.truth, min_size=4)
        hits = enrich_modules(modules, cats, n_genes=60, alpha=0.05)
        assert hits  # at least one module maps onto a true regulon
        assert hits[0].pvalue < 0.01

    def test_validation(self):
        module = GeneModule(genes=("a",), n_internal_edges=0, mean_internal_mi=0)
        with pytest.raises(ValueError):
            enrich_modules([module], {"c": frozenset("a")}, 0)
        with pytest.raises(ValueError):
            enrich_modules([module], {"c": frozenset("a")}, 10, alpha=1.0)


class TestNetworkUpdater:
    def test_validation(self):
        rng = np.random.default_rng(81)
        data = rng.normal(size=(20, 100))
        w = weight_tensor(rank_transform(data))
        mi = mi_matrix(w).mi
        null = pooled_null(w, 15, 50, seed=0)
        genes = [f"g{i}" for i in range(20)]
        with pytest.raises(ValueError, match="sizes disagree"):
            NetworkUpdater(w, mi[:5, :5], genes, null, data=data,
                           config=TingeConfig())
        with pytest.raises(ValueError, match="data shape"):
            NetworkUpdater(w, mi, genes, null, data=data[:, :50],
                           config=TingeConfig())
